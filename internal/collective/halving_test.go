package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trainbox/internal/units"
)

func TestHalvingDoublingMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, length := range []int{0, 1, 16, 64, 100, 1000} {
			rng := rand.New(rand.NewSource(int64(n*1000 + length)))
			data := make([][]float64, n)
			oracle := make([][]float64, n)
			for r := range data {
				data[r] = make([]float64, length)
				for i := range data[r] {
					data[r][i] = rng.NormFloat64()
				}
				oracle[r] = append([]float64(nil), data[r]...)
			}
			if length > 0 {
				if err := CentralAllReduce(oracle); err != nil {
					t.Fatal(err)
				}
			}
			if err := reduceBy("halving", data); err != nil {
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

func TestHalvingDoublingPropertyEqualsRing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(4)) // 2..16
		length := 1 + rng.Intn(50)
		hd := make([][]float64, n)
		ring := make([][]float64, n)
		for r := range hd {
			hd[r] = make([]float64, length)
			for i := range hd[r] {
				hd[r][i] = rng.NormFloat64() * 10
			}
			ring[r] = append([]float64(nil), hd[r]...)
		}
		if reduceBy("halving", hd) != nil || reduceBy("ring", ring) != nil {
			return false
		}
		for r := range hd {
			for i := range hd[r] {
				if math.Abs(hd[r][i]-ring[r][i]) > 1e-7*(1+math.Abs(ring[r][i])) {
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

func TestHalvingDoublingModelProperties(t *testing.T) {
	ring := DefaultRingModel()
	hd := HalvingDoublingModel{LinkBandwidth: ring.LinkBandwidth, HopLatency: ring.HopLatency}
	const size = 100 * units.MB
	// Bandwidth-optimal like the ring: transfer terms converge as n grows.
	r256 := ring.Latency(256, size)
	h256 := hd.Latency(256, size)
	if math.Abs(h256-r256)/r256 > 0.25 {
		t.Errorf("halving-doubling %v and ring %v should be within 25%% at large sizes", h256, r256)
	}
	// Fewer fixed-cost steps: for tiny payloads it beats the ring.
	tiny := units.Bytes(1 * units.KB)
	if hd.Latency(256, tiny) >= ring.Latency(256, tiny) {
		t.Errorf("halving-doubling should beat the ring on fixed costs: %v vs %v",
			hd.Latency(256, tiny), ring.Latency(256, tiny))
	}
	if hd.Latency(1, size) != 0 || hd.Latency(8, 0) != 0 {
		t.Error("degenerate latencies should be 0")
	}
}
