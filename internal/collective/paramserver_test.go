package collective

import (
	"math"
	"testing"

	"trainbox/internal/units"
)

func TestParamServerModel(t *testing.T) {
	const mb = 100 * units.MB
	bw := 100 * units.GBps

	// Shards = 1 degenerates to CentralModel at the server link.
	ps := ParamServerModel{Shards: 1, WorkerBandwidth: bw, ServerBandwidth: bw}
	central := CentralModel{LinkBandwidth: bw}
	got, want := ps.Latency(16, mb), central.Latency(16, mb)
	// CentralModel serializes n−1 copies; PS with one shard serializes n
	// pushes — same asymptote, so just require the same scaling regime.
	if got < want*0.8 || got > want*1.3 {
		t.Errorf("1-shard PS latency %v not in CentralModel regime %v", got, want)
	}

	// More shards must be monotonically no slower, down to the
	// worker-link floor of 2·M/B.
	prev := math.Inf(1)
	for _, shards := range []int{1, 2, 4, 8, 16, 32} {
		m := ParamServerModel{Shards: shards, WorkerBandwidth: bw, ServerBandwidth: bw}
		l := m.Latency(16, mb)
		if l > prev {
			t.Errorf("latency rose when shards grew to %d: %v > %v", shards, l, prev)
		}
		prev = l
	}
	floor := 2 * float64(mb) / float64(bw)
	wide := ParamServerModel{Shards: 1024, WorkerBandwidth: bw, ServerBandwidth: bw}
	if l := wide.Latency(16, mb); math.Abs(l-floor) > floor*1e-9 {
		t.Errorf("wide PS tier latency %v, want worker floor %v", l, floor)
	}

	// Degenerate inputs cost nothing.
	if wide.Latency(1, mb) != 0 || wide.Latency(16, 0) != 0 {
		t.Error("degenerate inputs should cost 0")
	}
	// Zero-value Shards behaves as 1.
	zero := ParamServerModel{WorkerBandwidth: bw, ServerBandwidth: bw}
	one := ParamServerModel{Shards: 1, WorkerBandwidth: bw, ServerBandwidth: bw}
	if zero.Latency(8, mb) != one.Latency(8, mb) {
		t.Error("Shards=0 should behave as 1")
	}
}
