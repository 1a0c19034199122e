package arch

import (
	"testing"

	"trainbox/internal/pcie"
	"trainbox/internal/units"
)

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k                         Kind
		acc, p2p, clustered, pool bool
	}{
		{Baseline, false, false, false, false},
		{BaselineAcc, true, false, false, false},
		{BaselineAccP2P, true, true, false, false},
		{BaselineAccP2PGen4, true, true, false, false},
		{TrainBoxNoPool, true, true, true, false},
		{TrainBox, true, true, true, true},
	}
	for _, c := range cases {
		if c.k.UsesPrepAccelerators() != c.acc || c.k.UsesP2P() != c.p2p ||
			c.k.Clustered() != c.clustered || c.k.HasPool() != c.pool {
			t.Errorf("%v predicates wrong", c.k)
		}
	}
	if BaselineAccP2PGen4.Generation() != pcie.Gen4 {
		t.Error("Gen4 variant should use Gen4")
	}
	if TrainBox.Generation() != pcie.Gen3 {
		t.Error("TrainBox should stay on commodity Gen3")
	}
	if len(Kinds()) != 6 {
		t.Error("Kinds() incomplete")
	}
	seen := map[string]bool{}
	for _, k := range Kinds() {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d bad string %q", k, s)
		}
		seen[s] = true
	}
}

func TestBuildBaselineShape(t *testing.T) {
	sys, err := Build(Config{Kind: Baseline, NumAccels: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Accels) != 256 {
		t.Errorf("accels = %d", len(sys.Accels))
	}
	if len(sys.SSDs) != 64 { // 2 per 8 accels
		t.Errorf("ssds = %d, want 64", len(sys.SSDs))
	}
	if len(sys.PrepAccels) != 0 {
		t.Error("baseline should have no prep accelerators")
	}
	if len(sys.Boxes) != 0 {
		t.Error("baseline should not be clustered")
	}
	// Every SSD→accel route must cross the root complex: device-type
	// grouping forces host-mediated paths.
	if !sys.Topo.RouteCrossesRoot(sys.SSDs[0], sys.Accels[0]) {
		t.Error("baseline SSD→accel route avoids the root complex")
	}
	if sys.Config.Prep != PrepCPU {
		t.Error("baseline prep device should be CPU")
	}
}

func TestBuildBaselineAccShape(t *testing.T) {
	sys, err := Build(Config{Kind: BaselineAcc, NumAccels: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.PrepAccels) != 64 { // 1 per 4 accels
		t.Errorf("prep accels = %d, want 64", len(sys.PrepAccels))
	}
	// FPGAs live in their own boxes: SSD→FPGA crosses the root.
	if !sys.Topo.RouteCrossesRoot(sys.SSDs[0], sys.PrepAccels[0]) {
		t.Error("B+Acc SSD→FPGA route should cross the root complex")
	}
	if sys.Config.Prep != PrepFPGA {
		t.Error("default prep device should be FPGA")
	}
}

func TestBuildTrainBoxShape(t *testing.T) {
	sys, err := Build(Config{Kind: TrainBox, NumAccels: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Boxes) != 32 {
		t.Fatalf("boxes = %d, want 32", len(sys.Boxes))
	}
	for i, g := range sys.Boxes {
		if len(g.Accels) != 8 || len(g.FPGAs) != 2 || len(g.SSDs) != 2 {
			t.Fatalf("box %d has %d/%d/%d accels/fpgas/ssds, want 8/2/2",
				i, len(g.Accels), len(g.FPGAs), len(g.SSDs))
		}
		// The clustering property (Section IV-D): in-box datapaths never
		// touch the root complex.
		for _, ssd := range g.SSDs {
			for _, fp := range g.FPGAs {
				if sys.Topo.RouteCrossesRoot(ssd, fp) {
					t.Fatal("in-box SSD→FPGA route crosses the root complex")
				}
			}
		}
		for _, fp := range g.FPGAs {
			for _, acc := range g.Accels {
				if sys.Topo.RouteCrossesRoot(fp, acc) {
					t.Fatal("in-box FPGA→accel route crosses the root complex")
				}
			}
		}
	}
	if sys.PoolNet == nil {
		t.Fatal("TrainBox should have a prep-pool network")
	}
	if ports := int(sys.PoolNet.Capacity() / sys.PoolNet.Link().Bandwidth); ports < len(sys.PrepAccels)+384 {
		t.Errorf("pool ports = %d, want in-box FPGAs + default pool size", ports)
	}
	if sys.Config.PoolFPGAs != 384 {
		t.Errorf("default pool FPGAs = %d, want 1.5×NumAccels", sys.Config.PoolFPGAs)
	}
}

func TestBuildTrainBoxNoPool(t *testing.T) {
	sys, err := Build(Config{Kind: TrainBoxNoPool, NumAccels: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sys.PoolNet != nil {
		t.Error("no-pool variant should have no pool network")
	}
	if sys.Config.PoolFPGAs != 0 {
		t.Error("no-pool variant should have zero pool FPGAs")
	}
}

func TestBuildPartialBox(t *testing.T) {
	sys, err := Build(Config{Kind: TrainBox, NumAccels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Accels) != 3 {
		t.Errorf("accels = %d", len(sys.Accels))
	}
	if len(sys.Boxes) != 1 {
		t.Errorf("boxes = %d", len(sys.Boxes))
	}
	// A partial box still gets an FPGA and SSDs.
	if len(sys.Boxes[0].FPGAs) < 1 || len(sys.Boxes[0].SSDs) != SSDsPerTrainBox {
		t.Errorf("partial box: %d fpgas %d ssds", len(sys.Boxes[0].FPGAs), len(sys.Boxes[0].SSDs))
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(Config{Kind: Baseline, NumAccels: 0}); err == nil {
		t.Error("zero accels accepted")
	}
	if _, err := Build(Config{Kind: TrainBox, NumAccels: maxAccels + 1}); err == nil {
		t.Errorf("%d accels accepted", maxAccels+1)
	}
}

func TestBoxOf(t *testing.T) {
	sys, err := Build(Config{Kind: TrainBox, NumAccels: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range sys.Boxes {
		for _, a := range g.Accels {
			if sys.BoxOf(a) != i {
				t.Fatalf("BoxOf(%v) = %d, want %d", a, sys.BoxOf(a), i)
			}
		}
	}
	flat, _ := Build(Config{Kind: Baseline, NumAccels: 8})
	if flat.BoxOf(flat.Accels[0]) != -1 {
		t.Error("flat system BoxOf should be -1")
	}
}

func TestRCCapacityScalesWithGeneration(t *testing.T) {
	if RCCapacity(pcie.Gen4) != 2*RCCapacity(pcie.Gen3) {
		t.Error("Gen4 RC capacity should double Gen3")
	}
}

func TestGPUPrepBuild(t *testing.T) {
	sys, err := Build(Config{Kind: BaselineAcc, NumAccels: 256, Prep: PrepGPU})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.PrepAccels) != 64 { // paper's 1:4 GPU ratio
		t.Errorf("GPUs = %d, want 64", len(sys.PrepAccels))
	}
	// GPUs sit on standard x16 links, not the FPGA dual-link attachment.
	bw := sys.Topo.LinkOf(sys.PrepAccels[0]).Bandwidth
	if bw != pcie.Gen3.LinkBandwidth() {
		t.Errorf("GPU link = %v, want Gen3 x16", bw)
	}
}

func TestPrepDeviceStrings(t *testing.T) {
	for _, d := range []PrepDevice{PrepCPU, PrepFPGA, PrepGPU, PrepXeonPhi} {
		if d.String() == "" {
			t.Errorf("device %d has empty string", d)
		}
	}
}

func TestDGX2Reference(t *testing.T) {
	h := DGX2()
	if h.Cores != 48 {
		t.Errorf("DGX-2 cores = %d, want 48 (Section III-B)", h.Cores)
	}
	if h.MemoryBandwidth != 239*units.GBps {
		t.Errorf("DGX-2 mem BW = %v, want 239 GB/s (Section III-C)", h.MemoryBandwidth)
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	if err := (HostSpec{Name: "x", Cores: 0, MemoryBandwidth: units.GBps}).Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	if err := (HostSpec{Name: "x", Cores: 4, MemoryBandwidth: 0}).Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}
