package pcie

import (
	"strings"
	"testing"

	"trainbox/internal/units"
)

// buildTestTree builds:
//
//	rc ── sw0 ── ssd0
//	 │      └── acc0
//	 └─ sw1 ── acc1
//	        └── sw2 ── fpga0
func buildTestTree(t *testing.T) (*Topology, map[string]NodeID) {
	t.Helper()
	b := NewBuilder(Gen3)
	ids := map[string]NodeID{}
	ids["rc"] = b.Root("rc")
	ids["sw0"] = b.Switch(ids["rc"], "sw0")
	ids["sw1"] = b.Switch(ids["rc"], "sw1")
	ids["ssd0"] = b.Device(ids["sw0"], KindSSD, "ssd0")
	ids["acc0"] = b.Device(ids["sw0"], KindNNAccel, "acc0")
	ids["acc1"] = b.Device(ids["sw1"], KindNNAccel, "acc1")
	ids["sw2"] = b.Switch(ids["sw1"], "sw2")
	ids["fpga0"] = b.Device(ids["sw2"], KindPrepAccel, "fpga0")
	topo := b.Build()
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return topo, ids
}

func TestRouteSiblingStaysUnderSwitch(t *testing.T) {
	topo, ids := buildTestTree(t)
	route := topo.Route(ids["ssd0"], ids["acc0"])
	want := []Segment{{ids["ssd0"], Up}, {ids["acc0"], Down}}
	if len(route) != len(want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
	if topo.RouteCrossesRoot(ids["ssd0"], ids["acc0"]) {
		t.Error("sibling route should not cross the root complex")
	}
}

func TestRouteCrossTreeGoesThroughRoot(t *testing.T) {
	topo, ids := buildTestTree(t)
	route := topo.Route(ids["ssd0"], ids["fpga0"])
	want := []Segment{
		{ids["ssd0"], Up}, {ids["sw0"], Up},
		{ids["sw1"], Down}, {ids["sw2"], Down}, {ids["fpga0"], Down},
	}
	if len(route) != len(want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route[%d] = %v, want %v", i, route[i], want[i])
		}
	}
	if !topo.RouteCrossesRoot(ids["ssd0"], ids["fpga0"]) {
		t.Error("cross-tree route should cross the root complex")
	}
}

func TestRouteSameNodeIsEmpty(t *testing.T) {
	topo, ids := buildTestTree(t)
	if r := topo.Route(ids["acc0"], ids["acc0"]); len(r) != 0 {
		t.Errorf("same-node route = %v, want empty", r)
	}
}

func TestRouteIsSymmetricReversed(t *testing.T) {
	topo, ids := buildTestTree(t)
	fwd := topo.Route(ids["acc0"], ids["fpga0"])
	rev := topo.Route(ids["fpga0"], ids["acc0"])
	if len(fwd) != len(rev) {
		t.Fatalf("asymmetric route lengths %d vs %d", len(fwd), len(rev))
	}
	for i := range fwd {
		j := len(rev) - 1 - i
		if fwd[i].Link != rev[j].Link {
			t.Errorf("link mismatch at %d: %v vs %v", i, fwd[i], rev[j])
		}
		if fwd[i].Direction == rev[j].Direction {
			t.Errorf("direction should flip at %d: %v vs %v", i, fwd[i], rev[j])
		}
	}
}

func TestGenerationBandwidth(t *testing.T) {
	if Gen4.LinkBandwidth() != 2*Gen3.LinkBandwidth() {
		t.Errorf("Gen4 should double Gen3: %v vs %v", Gen4.LinkBandwidth(), Gen3.LinkBandwidth())
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("double root", func() {
		b := NewBuilder(Gen3)
		b.Root("a")
		b.Root("b")
	})
	mustPanic("device before root", func() {
		b := NewBuilder(Gen3)
		b.Switch(0, "sw")
	})
	mustPanic("device under device", func() {
		b := NewBuilder(Gen3)
		r := b.Root("rc")
		d := b.Device(r, KindSSD, "ssd")
		b.Device(d, KindNNAccel, "acc")
	})
	mustPanic("switch via Device", func() {
		b := NewBuilder(Gen3)
		r := b.Root("rc")
		b.Device(r, KindSwitch, "sw")
	})
	mustPanic("add after build", func() {
		b := NewBuilder(Gen3)
		r := b.Root("rc")
		b.Build()
		b.Switch(r, "sw")
	})
}

func TestDeviceBWOverride(t *testing.T) {
	b := NewBuilder(Gen3)
	r := b.Root("rc")
	ssd := b.DeviceBW(r, KindSSD, "ssd", 4*units.GBps)
	topo := b.Build()
	if got := topo.LinkOf(ssd).Bandwidth; got != 4*units.GBps {
		t.Errorf("link bandwidth = %v, want 4 GB/s", got)
	}
}

func TestRootHasNoUplink(t *testing.T) {
	topo, ids := buildTestTree(t)
	defer func() {
		if recover() == nil {
			t.Error("LinkOf(root) did not panic")
		}
	}()
	topo.LinkOf(ids["rc"])
}

func TestNodeKindStrings(t *testing.T) {
	kinds := []NodeKind{KindRootComplex, KindSwitch, KindSSD, KindNNAccel, KindPrepAccel, KindNIC, KindHost}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty or duplicate string %q", k, s)
		}
		seen[s] = true
	}
}

func TestDescribeRendersTree(t *testing.T) {
	topo, _ := buildTestTree(t)
	out := topo.Describe()
	for _, want := range []string{"rc [root-complex]", "sw0 [switch]", "ssd0 [ssd]", "fpga0 [prep-accel]", "16.00 GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	// Children indented deeper than parents.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "rc") {
		t.Error("root not first")
	}
	if !strings.HasPrefix(lines[1], "  ") {
		t.Error("children not indented")
	}
}

func TestSummarize(t *testing.T) {
	topo, _ := buildTestTree(t)
	s := topo.Summarize()
	if s.Nodes != 8 {
		t.Errorf("nodes = %d, want 8", s.Nodes)
	}
	if s.ByKind[KindSwitch] != 3 || s.ByKind[KindNNAccel] != 2 || s.ByKind[KindSSD] != 1 {
		t.Errorf("by-kind = %v", s.ByKind)
	}
	if s.MaxDepth != 3 { // rc → sw1 → sw2 → fpga0
		t.Errorf("max depth = %d, want 3", s.MaxDepth)
	}
}
