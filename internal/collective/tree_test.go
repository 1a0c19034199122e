package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trainbox/internal/units"
)

func TestTreeAllReduceMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16} {
		for _, length := range []int{0, 1, 7, 100} {
			rng := rand.New(rand.NewSource(int64(n*100 + length)))
			data := make([][]float64, n)
			oracle := make([][]float64, n)
			for r := range data {
				data[r] = make([]float64, length)
				for i := range data[r] {
					data[r][i] = rng.NormFloat64()
				}
				oracle[r] = append([]float64(nil), data[r]...)
			}
			if err := CentralAllReduce(oracle); err != nil && length > 0 {
				t.Fatal(err)
			}
			if err := reduceBy("tree", data); err != nil {
				t.Fatalf("n=%d len=%d: %v", n, length, err)
			}
			for r := range data {
				for i := range data[r] {
					if math.Abs(data[r][i]-oracle[r][i]) > 1e-9*(1+math.Abs(oracle[r][i])) {
						t.Fatalf("n=%d len=%d rank=%d idx=%d: %v vs %v",
							n, length, r, i, data[r][i], oracle[r][i])
					}
				}
			}
		}
	}
}

func TestTreeAllReduceErrors(t *testing.T) {
	if err := reduceBy("tree", nil); err == nil {
		t.Error("empty rank set accepted")
	}
	if err := reduceBy("tree", [][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestTreeAllReducePropertyEqualsRing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		length := 1 + rng.Intn(40)
		tree := make([][]float64, n)
		ring := make([][]float64, n)
		for r := range tree {
			tree[r] = make([]float64, length)
			for i := range tree[r] {
				tree[r][i] = rng.NormFloat64() * 10
			}
			ring[r] = append([]float64(nil), tree[r]...)
		}
		if reduceBy("tree", tree) != nil || reduceBy("ring", ring) != nil {
			return false
		}
		for r := range tree {
			for i := range tree[r] {
				if math.Abs(tree[r][i]-ring[r][i]) > 1e-7*(1+math.Abs(ring[r][i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTreeModelScalesLogarithmically(t *testing.T) {
	m := TreeModel{LinkBandwidth: 150 * units.GBps, HopLatency: 1e-6}
	const size = 100 * units.MB
	l4 := m.Latency(4, size)
	l16 := m.Latency(16, size)
	l256 := m.Latency(256, size)
	// log2: 2, 4, 8 levels → latency ratios 1 : 2 : 4.
	if math.Abs(l16/l4-2) > 1e-9 || math.Abs(l256/l4-4) > 1e-9 {
		t.Errorf("tree latency ratios wrong: %v %v %v", l4, l16, l256)
	}
	if m.Latency(1, size) != 0 || m.Latency(4, 0) != 0 {
		t.Error("degenerate latencies should be 0")
	}
}

// TestRingBeatsTreeForLargeModels captures the trade the paper's ring
// choice rests on: for multi-megabyte gradient vectors the ring's
// bandwidth optimality dominates the tree's latency advantage.
func TestRingBeatsTreeForLargeModels(t *testing.T) {
	ring := DefaultRingModel()
	tree := TreeModel{LinkBandwidth: ring.LinkBandwidth, HopLatency: ring.HopLatency}
	const n = 256
	big := units.Bytes(100 * units.MB) // ResNet-50 class
	if ring.Latency(n, big) >= tree.Latency(n, big) {
		t.Errorf("ring (%v) should beat tree (%v) for %v", ring.Latency(n, big), tree.Latency(n, big), big)
	}
	// And the tree wins for tiny messages.
	tiny := units.Bytes(1 * units.KB)
	if tree.Latency(n, tiny) >= ring.Latency(n, tiny) {
		t.Errorf("tree (%v) should beat ring (%v) for %v", tree.Latency(n, tiny), ring.Latency(n, tiny), tiny)
	}
	// The crossover point separates the regimes.
	cross := CrossoverBytes(ring, tree, n)
	if cross <= tiny || cross >= big {
		t.Errorf("crossover = %v, want between %v and %v", cross, tiny, big)
	}
	below := units.Bytes(float64(cross) * 0.5)
	above := units.Bytes(float64(cross) * 2)
	if tree.Latency(n, below) >= ring.Latency(n, below) {
		t.Error("tree should win below the crossover")
	}
	if ring.Latency(n, above) >= tree.Latency(n, above) {
		t.Error("ring should win above the crossover")
	}
}

func TestCrossoverEdgeCases(t *testing.T) {
	ring := DefaultRingModel()
	tree := TreeModel{LinkBandwidth: ring.LinkBandwidth, HopLatency: ring.HopLatency}
	if CrossoverBytes(ring, tree, 2) != 0 {
		t.Error("n=2 crossover should be 0")
	}
	// Zero-latency hops: the ring always wins → crossover 0.
	zr := RingModel{LinkBandwidth: ring.LinkBandwidth, HopLatency: 0}
	zt := TreeModel{LinkBandwidth: ring.LinkBandwidth, HopLatency: 0}
	if CrossoverBytes(zr, zt, 64) != 0 {
		t.Error("zero-hop crossover should be 0")
	}
}
