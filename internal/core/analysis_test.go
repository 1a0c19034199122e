package core

import (
	"math"
	"testing"

	"trainbox/internal/arch"
	"trainbox/internal/workload"
)

func TestFig9PrepDominatesAtScale(t *testing.T) {
	// Figure 9 / Section III-B: "data preparation accounts for 98.1% of
	// the total latency" on average at 256 accelerators.
	var sum float64
	for _, w := range workload.Workloads() {
		b, err := DecomposeBaseline(w, 256)
		if err != nil {
			t.Fatal(err)
		}
		share := b.PrepShare()
		if share < 0.90 {
			t.Errorf("%s prep share = %.3f, want ≥0.90 at 256 accels", w.Name, share)
		}
		sum += share
	}
	if avg := sum / 7; avg < 0.93 || avg > 1 {
		t.Errorf("average prep share = %.3f, want ≈0.98", avg)
	}
}

func TestFig9PrepMinorAtSmallScale(t *testing.T) {
	// At 1 accelerator the historical picture holds: compute dominates.
	for _, w := range workload.Workloads() {
		b, err := DecomposeBaseline(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b.PrepShare() > 0.5 {
			t.Errorf("%s prep share at n=1 = %.3f, want < 0.5", w.Name, b.PrepShare())
		}
	}
}

func TestFig3LadderShiftsBottleneckToPrep(t *testing.T) {
	// Figure 3: as accelerator, interconnect, and synchronization improve
	// left to right, preparation's share of latency rises from minor to
	// dominant (54.9× the others in the final configuration).
	w, _ := workload.ByName("Resnet-50")
	ladder := Fig3Ladder()
	if len(ladder) != 4 {
		t.Fatalf("ladder has %d rungs, want 4", len(ladder))
	}
	var shares []float64
	for _, cfg := range ladder {
		b, err := DecomposeFig3(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, b.PrepShare())
	}
	for i := 1; i < len(shares); i++ {
		if shares[i] < shares[i-1]-1e-9 {
			t.Errorf("prep share fell at rung %d: %v", i, shares)
		}
	}
	if shares[0] > 0.25 {
		t.Errorf("Current-config prep share = %.3f, should be minor", shares[0])
	}
	// Final rung: prep is tens of times the others.
	final, _ := DecomposeFig3(w, ladder[3])
	ratio := final.PrepTotal() / final.OthersTotal()
	if ratio < 20 || ratio > 100 {
		t.Errorf("final prep/others = %.1f×, paper reports 54.9×", ratio)
	}
	if _, err := DecomposeFig3(w, Fig3Config{}); err == nil {
		t.Error("empty fig3 config accepted")
	}
}

func TestRequirementsMatchFig10Anchors(t *testing.T) {
	// Figure 10 at 256 accelerators: CPU up to ~100× DGX-2 (we land at
	// ~90× with the TF-AA calibration), memory up to ~18×, and the
	// accelerator:core ratio far above DGX-2's 3:1.
	var maxCPU, maxMem, maxPCIe, maxCores float64
	for _, w := range workload.Workloads() {
		r, err := RequiredResources(w, 256)
		if err != nil {
			t.Fatal(err)
		}
		if r.CPU <= 0 || r.MemoryBW <= 0 || r.PCIeBW <= 0 {
			t.Errorf("%s: degenerate requirements %+v", w.Name, r)
		}
		maxCPU = math.Max(maxCPU, r.CPU)
		maxMem = math.Max(maxMem, r.MemoryBW)
		maxPCIe = math.Max(maxPCIe, r.PCIeBW)
		maxCores = math.Max(maxCores, r.Cores)
	}
	if maxCPU < 60 || maxCPU > 130 {
		t.Errorf("max CPU requirement = %.1f× DGX-2, paper reports up to 100.7×", maxCPU)
	}
	if maxMem < 10 || maxMem > 25 {
		t.Errorf("max memory requirement = %.1f× DGX-2, paper reports up to 17.9×", maxMem)
	}
	if maxPCIe < 3 {
		t.Errorf("max PCIe requirement = %.1f× DGX-2, should be several ×", maxPCIe)
	}
	// "the system should support up to 4,833 cores".
	if maxCores < 3000 || maxCores > 6500 {
		t.Errorf("max cores = %.0f, paper reports 4,833", maxCores)
	}
}

func TestRequirementsScaleLinearlyUntilSync(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	var sweep []Requirements
	for _, n := range []int{1, 2, 4, 8} {
		r, err := RequiredResources(w, n)
		if err != nil {
			t.Fatal(err)
		}
		sweep = append(sweep, r)
	}
	// Doubling accelerators ≈ doubles every requirement (sync overhead is
	// negligible at the table batch).
	for i := 1; i < len(sweep); i++ {
		ratio := sweep[i].CPU / sweep[i-1].CPU
		if ratio < 1.9 || ratio > 2.0+1e-9 {
			t.Errorf("CPU requirement ratio at step %d = %.3f, want ≈2", i, ratio)
		}
	}
	if _, err := RequiredResources(w, 0); err == nil {
		t.Error("zero accels accepted")
	}
}

func TestDefaultScalesCoverPaperAxis(t *testing.T) {
	s := DefaultScales()
	if s[0] != 1 || s[len(s)-1] != 256 {
		t.Errorf("scales = %v, want 1..256", s)
	}
}

func TestUtilizationLadderFig22(t *testing.T) {
	for _, name := range []string{"Resnet-50", "TF-SR"} {
		w, _ := workload.ByName(name)
		ladder, err := UtilizationLadder(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(ladder) != 4 {
			t.Fatalf("ladder rungs = %d, want 4", len(ladder))
		}
		base, bacc, p2p, tb := ladder[0], ladder[1], ladder[2], ladder[3]

		// Baseline totals are 1 by construction.
		if math.Abs(base.CPUTotal()-1) > 1e-9 || math.Abs(base.MemoryTotal()-1) > 1e-9 ||
			math.Abs(base.PCIeTotal()-1) > 1e-9 {
			t.Errorf("%s baseline totals != 1: %v %v %v", name,
				base.CPUTotal(), base.MemoryTotal(), base.PCIeTotal())
		}
		// Acceleration slashes CPU (Figure 22's first panel).
		if bacc.CPUTotal() > 0.2 {
			t.Errorf("%s B+Acc CPU = %.3f, want ≤0.2", name, bacc.CPUTotal())
		}
		// P2P removes nearly all memory traffic.
		if p2p.MemoryTotal() > 0.05 {
			t.Errorf("%s P2P memory = %.3f, want ≈0", name, p2p.MemoryTotal())
		}
		// But acceleration doubles PCIe pressure until clustering.
		if math.Abs(bacc.PCIeTotal()-2) > 0.01 || math.Abs(p2p.PCIeTotal()-2) > 0.01 {
			t.Errorf("%s B+Acc/P2P PCIe = %.2f/%.2f, want 2.0 (Section IV-D)",
				name, bacc.PCIeTotal(), p2p.PCIeTotal())
		}
		// TrainBox frees everything.
		if tb.CPUTotal() > 0.05 || tb.MemoryTotal() > 0.05 || tb.PCIeTotal() > 0.05 {
			t.Errorf("%s TrainBox residuals too high: %v %v %v", name,
				tb.CPUTotal(), tb.MemoryTotal(), tb.PCIeTotal())
		}
	}
}

func TestUtilizationRejectsDegenerateWorkload(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	w.AccelRate = 0
	if _, err := UtilizationLadder(w); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestInitializerSizesPoolLikePaper(t *testing.T) {
	keys := make([]string, 320)
	for i := range keys {
		keys[i] = "k"
	}
	// TF-SR: every box draws ≈54% extra resources (Section VI-D).
	wTFSR, _ := workload.ByName("TF-SR")
	sysTB := mustBuild(t, arch.Config{Kind: arch.TrainBox, NumAccels: 256})
	plan, err := InitializeTraining(sysTB, wTFSR, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Error("TF-SR plan infeasible with the pool")
	}
	if len(plan.PerBox) != 32 || len(plan.Shards) != 32 {
		t.Fatalf("plan shape: %d boxes, %d shards", len(plan.PerBox), len(plan.Shards))
	}
	for i, alloc := range plan.PerBox {
		if math.Abs(alloc.ExtraResourceFraction-0.54) > 0.08 {
			t.Errorf("box %d extra fraction = %.2f, want ≈0.54", i, alloc.ExtraResourceFraction)
		}
	}
	if plan.RequiredPrepRate <= 0 || plan.BatchTime <= 0 {
		t.Errorf("degenerate plan: %+v", plan)
	}

	// Inception-v4 needs no pool at all.
	wInc, _ := workload.ByName("Inception-v4")
	plan2, err := InitializeTraining(sysTB, wInc, keys)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.PoolFPGAsUsed != 0 || !plan2.Feasible {
		t.Errorf("Inception plan used %d pool FPGAs, want 0", plan2.PoolFPGAsUsed)
	}
}

func TestInitializerNoPoolReportsInfeasible(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	w, _ := workload.ByName("TF-SR")
	sys := mustBuild(t, arch.Config{Kind: arch.TrainBoxNoPool, NumAccels: 256})
	plan, err := InitializeTraining(sys, w, keys)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Error("TF-SR without pool should be infeasible at the target rate")
	}
}

func TestInitializerRejectsFlatSystems(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	sys := mustBuild(t, arch.Config{Kind: arch.Baseline, NumAccels: 8})
	if _, err := InitializeTraining(sys, w, []string{"a"}); err == nil {
		t.Error("flat system accepted by initializer")
	}
}
