package collective_test

import (
	"context"
	"fmt"
	"log"

	"trainbox/internal/collective"
	"trainbox/internal/units"
)

// ExampleNewRing sums gradients across four ranks in place through the
// Reducer interface.
func ExampleNewRing() {
	ring, err := collective.NewRing()
	if err != nil {
		log.Fatal(err)
	}
	data := [][]float64{
		{1, 10},
		{2, 20},
		{3, 30},
		{4, 40},
	}
	if err := ring.Reduce(context.Background(), data); err != nil {
		log.Fatal(err)
	}
	fmt.Println(data[0])
	fmt.Println(data[3])
	// Output:
	// [10 100]
	// [10 100]
}

// ExampleRingModel_NormalizedLatency reproduces Figure 2b's saturation:
// ring synchronization latency approaches twice the two-rank latency.
func ExampleRingModel_NormalizedLatency() {
	m := collective.DefaultRingModel()
	for _, n := range []int{2, 16, 256} {
		fmt.Printf("n=%d: %.2f\n", n, m.NormalizedLatency(n, 100*units.MB))
	}
	// Output:
	// n=2: 1.00
	// n=16: 1.88
	// n=256: 2.06
}
