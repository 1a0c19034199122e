package eth

import (
	"math"
	"testing"

	"trainbox/internal/units"
)

func TestInNetworkSpecValidation(t *testing.T) {
	net, err := NewNetwork(Link100G, SwitchSpec{Ports: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.InNetwork(AggregationSpec{Compression: 0.5}); err == nil {
		t.Error("compression < 1 accepted")
	}
	if _, err := net.InNetwork(AggregationSpec{Compression: 1, ReduceBandwidth: -1}); err == nil {
		t.Error("negative reduce bandwidth accepted")
	}
	if _, err := net.InNetwork(AggregationSpec{Compression: 1, RoundLatency: -1}); err == nil {
		t.Error("negative round latency accepted")
	}
	if _, err := net.InNetwork(DefaultAggregationSpec()); err != nil {
		t.Errorf("default spec rejected: %v", err)
	}
}

func TestInNetworkSyncLatencyMath(t *testing.T) {
	net, err := NewNetwork(Link100G, SwitchSpec{Ports: 32})
	if err != nil {
		t.Fatal(err)
	}
	spec := AggregationSpec{Compression: 4, RoundLatency: 2e-6}
	agg, err := net.InNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}

	const mb = 100 * units.MB
	want := 2*(float64(mb)/4)/float64(Link100G.Bandwidth) + 2e-6
	if got := agg.SyncLatency(16, mb); math.Abs(got-want) > want*1e-12 {
		t.Errorf("SyncLatency(16) = %v, want %v", got, want)
	}
	// Worker-count independent on a non-blocking switch: the engine
	// reduces in flight, so each port still carries one copy each way.
	if l2, l32 := agg.SyncLatency(2, mb), agg.SyncLatency(32, mb); l2 != l32 {
		t.Errorf("non-blocking in-network latency depends on workers: %v vs %v", l2, l32)
	}
	// Compression scales the wire term linearly.
	raw, _ := net.InNetwork(AggregationSpec{Compression: 1, RoundLatency: 2e-6})
	if lr, lc := raw.SyncLatency(16, mb), agg.SyncLatency(16, mb); !(lr > 3.9*lc && lr < 4.1*lc) {
		t.Errorf("4x compression did not cut wire time ~4x: raw=%v compressed=%v", lr, lc)
	}
	// Degenerate inputs cost nothing.
	if agg.SyncLatency(1, mb) != 0 || agg.SyncLatency(16, 0) != 0 {
		t.Error("degenerate inputs should cost 0")
	}
}

func TestInNetworkReduceEngineAndAggregateCeilings(t *testing.T) {
	const mb = 100 * units.MB
	// Reduce engine slower than line rate dominates.
	net, _ := NewNetwork(Link100G, SwitchSpec{Ports: 8})
	slow, err := net.InNetwork(AggregationSpec{Compression: 1, ReduceBandwidth: Link100G.Bandwidth / 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * float64(mb) / float64(Link100G.Bandwidth/2)
	if got := slow.SyncLatency(4, mb); math.Abs(got-want) > want*1e-12 {
		t.Errorf("reduce-engine-bound latency = %v, want %v", got, want)
	}

	// An aggregate switch ceiling splits across workers, so latency
	// grows once workers saturate it.
	capped, _ := NewNetwork(Link100G, SwitchSpec{Ports: 32, AggregateBandwidth: 4 * Link100G.Bandwidth})
	a, err := capped.InNetwork(AggregationSpec{Compression: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l4, l16 := a.SyncLatency(4, mb), a.SyncLatency(16, mb); l16 <= l4 {
		t.Errorf("aggregate-capped latency did not grow with workers: %v vs %v", l4, l16)
	}
}
