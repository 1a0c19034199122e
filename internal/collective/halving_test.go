package collective

import (
	"math"
	"testing"

	"trainbox/internal/units"
)

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
