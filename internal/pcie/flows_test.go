package pcie

import (
	"math"
	"testing"

	"trainbox/internal/units"
)

func TestLinkLoadAccumulatesPerLink(t *testing.T) {
	topo, ids := buildTestTree(t)
	ll := NewLinkLoad(topo)
	ll.AddTransfer(ids["ssd0"], ids["acc0"], 100)    // local to sw0
	ll.AddTransfer(ids["ssd0"], ids["acc1"], 50)     // crosses root
	if got := ll.Load(ids["ssd0"], Up); got != 150 { // both leave the SSD
		t.Errorf("ssd uplink load = %v, want 150", got)
	}
	if got := ll.Load(ids["acc0"], Down); got != 100 {
		t.Errorf("acc0 downlink load = %v, want 100", got)
	}
	if got := ll.Load(ids["sw0"], Up); got != 50 {
		t.Errorf("sw0 uplink load = %v, want 50", got)
	}
	// RC sees the cross-tree transfer twice: entering (sw0 up) + leaving (sw1 down).
	if got := ll.RootComplexLoad(); got != 100 {
		t.Errorf("RC load = %v, want 100", got)
	}
}

func TestLinkLoadMaxUnitTime(t *testing.T) {
	b := NewBuilder(Gen3)
	rc := b.Root("rc")
	ssd := b.DeviceBW(rc, KindSSD, "ssd", 1*units.GBps)
	acc := b.Device(rc, KindNNAccel, "acc")
	topo := b.Build()
	ll := NewLinkLoad(topo)
	ll.AddTransfer(ssd, acc, units.Bytes(2e9))
	sec, link, dir := ll.MaxUnitTime()
	if math.Abs(sec-2.0) > 1e-9 {
		t.Errorf("unit time = %v, want 2.0", sec)
	}
	if link != ssd || dir != Up {
		t.Errorf("bottleneck = %v/%v, want ssd/up", link, dir)
	}
}

func TestLinkLoadEmpty(t *testing.T) {
	topo, _ := buildTestTree(t)
	ll := NewLinkLoad(topo)
	sec, link, _ := ll.MaxUnitTime()
	if sec != 0 || link != -1 {
		t.Errorf("empty load: sec=%v link=%v", sec, link)
	}
}
