package eth

import (
	"testing"

	"trainbox/internal/units"
)

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(LinkSpec{Bandwidth: 0}, SwitchSpec{Ports: 4}); err == nil {
		t.Error("zero-bandwidth link accepted")
	}
	if _, err := NewNetwork(Link100G, SwitchSpec{Ports: 0}); err == nil {
		t.Error("zero-port switch accepted")
	}
}

func TestReserveExhaustion(t *testing.T) {
	// 2 non-blocking 100G ports → 25 GB/s capacity.
	n, _ := NewNetwork(Link100G, SwitchSpec{Ports: 2})
	if got := n.Capacity(); got != 25*units.GBps {
		t.Fatalf("capacity = %v, want 25 GB/s", got)
	}
	r1, err := n.Reserve(20 * units.GBps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Reserve(10 * units.GBps); err == nil {
		t.Error("over-capacity reservation accepted")
	}
	if got := n.Capacity() - n.Reserved(); got != 5*units.GBps {
		t.Errorf("available = %v after failed reserve, want 5 GB/s (failed claims must not leak)", got)
	}
	r2, err := n.Reserve(5 * units.GBps)
	if err != nil {
		t.Fatalf("exact remaining capacity refused: %v", err)
	}
	if n.Reserved() != n.Capacity() {
		t.Errorf("reserved = %v at full reservation, want the %v capacity", n.Reserved(), n.Capacity())
	}
	if err := r2.Release(); err != nil {
		t.Errorf("release after exhaustion: %v", err)
	}
	// Release-after-exhaustion must restore exactly the released slice.
	if got := n.Capacity() - n.Reserved(); got != 5*units.GBps {
		t.Errorf("available = %v after release, want 5 GB/s", got)
	}
	if err := r1.Release(); err != nil {
		t.Errorf("release: %v", err)
	}
	if n.Reserved() != 0 {
		t.Errorf("reserved = %v after releasing everything, want 0", n.Reserved())
	}
}

func TestReserveDoubleRelease(t *testing.T) {
	n, _ := NewNetwork(Link100G, SwitchSpec{Ports: 2, AggregateBandwidth: 10 * units.GBps})
	r, err := n.Reserve(4 * units.GBps)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(); err == nil {
		t.Error("double release accepted")
	}
	if n.Reserved() != 0 {
		t.Errorf("double release corrupted accounting: reserved = %v, want 0", n.Reserved())
	}
	var nilRes *Reservation
	if err := nilRes.Release(); err == nil {
		t.Error("nil reservation release accepted")
	}
	if _, err := n.Reserve(0); err == nil {
		t.Error("zero-bandwidth reservation accepted")
	}
}

func TestLink100GMatchesPaperArgument(t *testing.T) {
	// Section IV-D: "100Gbs=12.5GB/s vs 16GB/s" — Ethernet must be the
	// same order as a PCIe Gen3 x16 link.
	ratio := float64(Link100G.Bandwidth) / 16e9
	if ratio < 0.7 || ratio > 1.0 {
		t.Errorf("100G/PCIe ratio = %v, want ≈0.78", ratio)
	}
}
