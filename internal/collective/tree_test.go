package collective

import (
	"math"
	"testing"

	"trainbox/internal/units"
)

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
}
