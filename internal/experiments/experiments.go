// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's models and substrates. All lists
// them; each returns its rendered tables plus the headline numbers the
// paper reports, so callers (trainbox-sim, EXPERIMENTS.md's tests) can
// compare paper-vs-measured directly.
package experiments

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/collective"
	"trainbox/internal/core"
	"trainbox/internal/fpga"
	"trainbox/internal/report"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// Experiment is one table-producing run: a paper figure or table, an
// ablation or a study.
type Experiment struct {
	Name string
	// Timed marks tables that hold wall-clock measurements, which
	// differ from run to run; every other experiment is deterministic.
	Timed bool
	// Run computes the tables. w is the workload studied by fig21,
	// ablation-fpga, ablation-rc and failure; the others ignore it.
	Run func(w workload.Workload) (Result, error)
}

// Result is an experiment's rendered tables and its headline numbers
// by name.
type Result struct {
	Tables    []*report.Table
	Headlines map[string]float64
}

// All lists every experiment in -list order.
var All = []Experiment{
	{Name: "ablation-ethernet", Run: ablationEthernet},
	{Name: "ablation-fpga", Run: ablationFPGAProvisioning},
	{Name: "ablation-pool", Run: ablationPoolSharing},
	{Name: "ablation-rc", Run: ablationRCCapacity},
	{Name: "ablation-sync", Run: ablationSyncScheme},
	{Name: "dscache", Timed: true, Run: cacheStudy},
	{Name: "failure", Run: failureStudy},
	{Name: "fig10", Run: fig10},
	{Name: "fig11", Run: fig11},
	{Name: "fig19", Run: fig19},
	{Name: "fig20", Run: fig20},
	{Name: "fig21", Run: fig21},
	{Name: "fig22", Run: fig22},
	{Name: "fig2a", Run: fig2a},
	{Name: "fig2b", Run: fig2b},
	{Name: "fig3", Run: fig3},
	{Name: "fig5", Run: fig5},
	{Name: "fig8", Run: fig8},
	{Name: "fig9", Run: fig9},
	{Name: "future", Run: futureWork},
	{Name: "huffman", Timed: true, Run: huffmanStudy},
	{Name: "inference", Run: inferenceStudy},
	{Name: "planner", Run: plannerStudy},
	{Name: "preppool", Run: dynamicPoolStudy},
	{Name: "prof", Timed: true, Run: prof},
	{Name: "staticprep", Run: staticPrep},
	{Name: "sync", Run: syncStudy},
	{Name: "table1", Run: tableI},
	{Name: "table2", Run: tableII},
	{Name: "table3", Run: tableIII},
}

// tables is a Result of tables alone.
func tables(ts ...*report.Table) Result { return Result{Tables: ts} }

// solve builds the system cfg describes and solves it for w.
func solve(cfg arch.Config, w workload.Workload) (core.Result, error) {
	sys, err := arch.Build(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return core.Solve(sys, w)
}

// scaleHeaders returns first followed by one "n=…" column per scale of
// core.DefaultScales.
func scaleHeaders(first string) []string {
	headers := []string{first}
	for _, n := range core.DefaultScales() {
		headers = append(headers, fmt.Sprintf("n=%d", n))
	}
	return headers
}

// at256 configures kind at the paper's 256-accelerator scale target.
func at256(kind arch.Kind) arch.Config {
	return arch.Config{Kind: kind, NumAccels: workload.TargetAccelerators}
}

// fig2a renders the hardware-trend context series.
func fig2a(workload.Workload) (Result, error) {
	t := report.NewTable("Figure 2a — normalized performance trends of NN hardware",
		"year", "asic", "interconnect")
	for _, p := range workload.HardwareTrends() {
		t.AddRowf(p.Year, p.ASIC, p.Interconnect)
	}
	return tables(t), nil
}

// fig2b computes normalized ring all-reduce latency versus accelerator
// count for a 4 KB-chunked ring; it should saturate just above 2.
func fig2b(workload.Workload) (Result, error) {
	m := collective.DefaultRingModel()
	const modelBytes = 100 * units.MB
	t := report.NewTable("Figure 2b — ring synchronization latency (normalized to n=2)",
		"accelerators", "normalized latency")
	var norm float64
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		norm = m.NormalizedLatency(n, modelBytes)
		t.AddRowf(n, norm)
	}
	return Result{Tables: []*report.Table{t},
		Headlines: map[string]float64{"normalized latency at 256": norm}}, nil
}

// fig3 computes the ResNet-50 latency decomposition across the paper's
// optimization ladder. Its headline is preparation time over
// compute+sync time in the fully optimized configuration (paper: 54.9×).
func fig3(workload.Workload) (Result, error) {
	w, err := workload.ByName("Resnet-50")
	if err != nil {
		return Result{}, err
	}
	t := report.NewTable("Figure 3 — ResNet-50 latency decomposition across optimizations",
		"config", "prep share %", "compute share %", "sync share %", "prep/others ×")
	var ratio float64
	for _, cfg := range core.Fig3Ladder() {
		b, err := core.DecomposeFig3(w, cfg)
		if err != nil {
			return Result{}, err
		}
		total := b.Total()
		ratio = b.PrepTotal() / b.OthersTotal()
		t.AddRowf(cfg.Name, 100*b.PrepTotal()/total, 100*b.ModelCompute/total,
			100*b.ModelSync/total, ratio)
	}
	return Result{Tables: []*report.Table{t},
		Headlines: map[string]float64{"final prep/others": ratio}}, nil
}

// fig8 computes baseline throughput (normalized to one accelerator)
// versus scale for all workloads. Its headline is the largest effective
// accelerator count any workload reaches (paper: ≈18).
func fig8(workload.Workload) (Result, error) {
	t := report.NewTable("Figure 8 — baseline scalability (normalized throughput)", scaleHeaders("workload")...)
	var maxSat float64
	for _, w := range workload.Workloads() {
		row := []any{w.Name}
		var base, last float64
		for _, n := range core.DefaultScales() {
			r, err := solve(arch.Config{Kind: arch.Baseline, NumAccels: n}, w)
			if err != nil {
				return Result{}, err
			}
			if n == 1 {
				base = float64(r.Throughput)
			}
			last = float64(r.Throughput) / base
			row = append(row, last)
		}
		maxSat = max(maxSat, last)
		t.AddRowf(row...)
	}
	return Result{Tables: []*report.Table{t},
		Headlines: map[string]float64{"max saturation": maxSat}}, nil
}

// fig9 computes the per-workload latency decomposition of the baseline
// at 256 accelerators. Its headline is data preparation's average share
// of per-batch latency (paper: 98.1%).
func fig9(workload.Workload) (Result, error) {
	t := report.NewTable("Figure 9 — baseline latency decomposition at 256 accelerators (%)",
		"workload", "data transfer", "formatting", "augmentation", "compute", "sync", "prep share")
	ws := workload.Workloads()
	var sum float64
	for _, w := range ws {
		b, err := core.DecomposeBaseline(w, workload.TargetAccelerators)
		if err != nil {
			return Result{}, err
		}
		total := b.Total()
		t.AddRowf(w.Name,
			100*b.DataTransfer/total, 100*b.Formatting/total, 100*b.Augmentation/total,
			100*b.ModelCompute/total, 100*b.ModelSync/total, 100*b.PrepShare())
		sum += b.PrepShare()
	}
	return Result{Tables: []*report.Table{t},
		Headlines: map[string]float64{"mean prep share": sum / float64(len(ws))}}, nil
}

// fig10 computes required host resources (normalized to DGX-2) versus
// scale for all workloads. Its headlines are the maxima at 256
// accelerators (paper: 100.7×, 17.9×, 18.0× and 4,833 cores; this
// reproduction's PCIe model lands lower — see EXPERIMENTS.md).
func fig10(workload.Workload) (Result, error) {
	cpu := report.NewTable("Figure 10a — required CPU cores (× DGX-2)", scaleHeaders("workload")...)
	mem := report.NewTable("Figure 10b — required memory bandwidth (× DGX-2)", scaleHeaders("workload")...)
	pcie := report.NewTable("Figure 10c — required PCIe bandwidth at RC (× DGX-2)", scaleHeaders("workload")...)
	h := map[string]float64{}
	for _, w := range workload.Workloads() {
		cpuRow, memRow, pcieRow := []any{w.Name}, []any{w.Name}, []any{w.Name}
		for _, n := range core.DefaultScales() {
			r, err := core.RequiredResources(w, n)
			if err != nil {
				return Result{}, err
			}
			cpuRow = append(cpuRow, r.CPU)
			memRow = append(memRow, r.MemoryBW)
			pcieRow = append(pcieRow, r.PCIeBW)
			if n == workload.TargetAccelerators {
				h["max cpu"] = max(h["max cpu"], r.CPU)
				h["max memory"] = max(h["max memory"], r.MemoryBW)
				h["max pcie"] = max(h["max pcie"], r.PCIeBW)
				h["max cores"] = max(h["max cores"], r.Cores)
			}
		}
		cpu.AddRowf(cpuRow...)
		mem.AddRowf(memRow...)
		pcie.AddRowf(pcieRow...)
	}
	return Result{Tables: []*report.Table{cpu, mem, pcie}, Headlines: h}, nil
}

// fig11 renders the baseline host-resource consumption decomposition for
// one image and one audio workload (per-sample shares by category).
func fig11(workload.Workload) (Result, error) {
	t := report.NewTable("Figure 11 — host resource consumption decomposition (baseline, %)",
		"input", "resource", "ssd read", "formatting", "augmentation", "data load", "others")
	for _, name := range []string{"Resnet-50", "TF-SR"} {
		w, err := workload.ByName(name)
		if err != nil {
			return Result{}, err
		}
		label := w.Type.String()
		p := w.Prep
		cpuTotal := p.TotalCPUSeconds()
		t.AddRowf(label, "CPU",
			0.0,
			100*p.CPUSeconds[workload.OpFormat]/cpuTotal,
			100*p.CPUSeconds[workload.OpAugment]/cpuTotal,
			100*p.CPUSeconds[workload.OpLoad]/cpuTotal,
			100*p.CPUSeconds[workload.OpOther]/cpuTotal)
		memTotal := float64(p.TotalMemoryBytes())
		t.AddRowf(label, "Memory BW",
			100*float64(p.MemoryBytes[workload.OpSSDRead])/memTotal,
			100*float64(p.MemoryBytes[workload.OpFormat])/memTotal,
			100*float64(p.MemoryBytes[workload.OpAugment])/memTotal,
			100*float64(p.MemoryBytes[workload.OpLoad])/memTotal,
			100*float64(p.MemoryBytes[workload.OpOther])/memTotal)
		rc := float64(p.StoredBytes + p.TensorBytes)
		t.AddRowf(label, "PCIe BW",
			100*float64(p.StoredBytes)/rc, 0.0, 0.0, 100*float64(p.TensorBytes)/rc, 0.0)
	}
	return tables(t), nil
}

// tableI renders the workload summary.
func tableI(workload.Workload) (Result, error) {
	t := report.NewTable("Table I — workloads",
		"type", "name", "task", "batch", "model MB", "samples/s")
	for _, w := range workload.Workloads() {
		t.AddRowf(w.Kind, w.Name, w.Task, w.BatchSize,
			float64(w.ModelBytes)/1e6, float64(w.AccelRate))
	}
	return tables(t), nil
}

// fpgaTable renders one engine configuration with per-engine and total
// utilization.
func fpgaTable(title string, engines []fpga.Engine) (Result, error) {
	t := report.NewTable(title, "engine", "LUTs", "FF", "BRAM", "DSP")
	for _, e := range engines {
		t.AddRowf(e.Name, e.LUTs, e.FFs, e.BRAM, e.DSP)
	}
	u, err := fpga.XCVU9P().Utilization(engines)
	if err != nil {
		return Result{}, err
	}
	t.AddRowf("Total (%)", 100*u.LUTs, 100*u.FFs, 100*u.BRAM, 100*u.DSP)
	return tables(t), nil
}

// tableII renders the image-engine FPGA utilization.
func tableII(workload.Workload) (Result, error) {
	return fpgaTable("Table II — FPGA resource utilization (image)", fpga.ImageEngines())
}

// tableIII renders the audio-engine FPGA utilization.
func tableIII(workload.Workload) (Result, error) {
	return fpgaTable("Table III — FPGA resource utilization (audio)", fpga.AudioEngines())
}

// fig19 computes per-workload throughput of every architecture at 256
// accelerators, normalized to the baseline. Its headlines are the mean
// TrainBox speedup (paper: 44.4×), acceleration alone (paper: 3.32×),
// the largest improvement (paper: 84.3× on TF-AA, named in the title)
// and TrainBox over B+Acc+P2P (paper: 13.4×).
func fig19(workload.Workload) (Result, error) {
	kinds := arch.Kinds()
	headers := []string{"workload"}
	for _, k := range kinds {
		headers = append(headers, k.String())
	}
	t := report.NewTable("Figure 19 — normalized throughput at 256 accelerators", headers...)
	var sumTB, sumAcc, sumP2P, maxTB float64
	var maxName string
	for _, w := range workload.Workloads() {
		row := []any{w.Name}
		var base float64
		perKind := map[arch.Kind]float64{}
		for _, k := range kinds {
			r, err := solve(at256(k), w)
			if err != nil {
				return Result{}, err
			}
			if k == arch.Baseline {
				base = float64(r.Throughput)
			}
			perKind[k] = float64(r.Throughput) / base
			row = append(row, perKind[k])
		}
		t.AddRowf(row...)
		sumTB += perKind[arch.TrainBox]
		sumAcc += perKind[arch.BaselineAcc]
		sumP2P += perKind[arch.BaselineAccP2P]
		if perKind[arch.TrainBox] > maxTB {
			maxTB, maxName = perKind[arch.TrainBox], w.Name
		}
	}
	n := float64(len(workload.Workloads()))
	t.Title += fmt.Sprintf(" — avg TrainBox speedup %.1f× (paper 44.4×), avg B+Acc %.1f× (paper 3.32×), max %.1f× on %s (paper 84.3× on TF-AA)",
		sumTB/n, sumAcc/n, maxTB, maxName)
	return Result{Tables: []*report.Table{t}, Headlines: map[string]float64{
		"avg trainbox": sumTB / n, "avg acc": sumAcc / n,
		"max trainbox": maxTB, "clustering gain": sumTB / sumP2P,
	}}, nil
}

// fig20 sweeps ResNet-50 batch sizes on baseline and TrainBox at 256
// accelerators; throughput is normalized to the baseline at batch 8.
// Its headline is TrainBox over the baseline at batch 8192.
func fig20(workload.Workload) (Result, error) {
	w, err := workload.ByName("Resnet-50")
	if err != nil {
		return Result{}, err
	}
	t := report.NewTable("Figure 20 — ResNet-50 batch-size sweep at 256 accelerators (normalized)",
		"batch", "baseline", "trainbox", "speedup")
	base, err := arch.Build(at256(arch.Baseline))
	if err != nil {
		return Result{}, err
	}
	tb, err := arch.Build(at256(arch.TrainBox))
	if err != nil {
		return Result{}, err
	}
	var norm, speedup float64
	for _, batch := range []int{8, 32, 128, 512, 2048, 8192} {
		rb, err := core.SolveBatch(base, w, batch)
		if err != nil {
			return Result{}, err
		}
		rt, err := core.SolveBatch(tb, w, batch)
		if err != nil {
			return Result{}, err
		}
		if norm == 0 {
			norm = float64(rb.Throughput)
		}
		speedup = float64(rt.Throughput) / float64(rb.Throughput)
		t.AddRowf(batch, float64(rb.Throughput)/norm, float64(rt.Throughput)/norm, speedup)
	}
	return Result{Tables: []*report.Table{t},
		Headlines: map[string]float64{"speedup at batch 8192": speedup}}, nil
}

// fig21 computes the scalability study for w (the paper shows
// Inception-v4 and TF-SR). Throughput is normalized to one accelerator's
// rate, so the ideal curve is y = n. Its headlines map each
// configuration to its accelerator-equivalents at 256 accelerators.
func fig21(w workload.Workload) (Result, error) {
	configs := []struct {
		name string
		cfg  arch.Config
	}{
		{"Baseline (CPU)", arch.Config{Kind: arch.Baseline}},
		{"Baseline+Acc (GPU)", arch.Config{Kind: arch.BaselineAcc, Prep: arch.PrepGPU}},
		{"Baseline+Acc (FPGA)", arch.Config{Kind: arch.BaselineAcc, Prep: arch.PrepFPGA}},
		{"TrainBox w/o prep-pool", arch.Config{Kind: arch.TrainBoxNoPool}},
		{"TrainBox", arch.Config{Kind: arch.TrainBox}},
	}
	t := report.NewTable(fmt.Sprintf("Figure 21 — scalability of %s (accel-equivalents)", w.Name), scaleHeaders("config")...)
	h := map[string]float64{}
	for _, c := range configs {
		row := []any{c.name}
		for _, n := range core.DefaultScales() {
			c.cfg.NumAccels = n
			r, err := solve(c.cfg, w)
			if err != nil {
				return Result{}, err
			}
			equiv := float64(r.Throughput) / float64(w.AccelRate)
			row = append(row, equiv)
			if n == workload.TargetAccelerators {
				h[c.name] = equiv
			}
		}
		t.AddRowf(row...)
	}
	return Result{Tables: []*report.Table{t}, Headlines: h}, nil
}

// fig22 renders the host-resource utilization ladder for one image and
// one audio workload.
func fig22(workload.Workload) (Result, error) {
	t := report.NewTable("Figure 22 — host resource utilization (normalized to baseline)",
		"input", "architecture", "CPU", "Memory BW", "PCIe BW")
	for _, name := range []string{"Resnet-50", "TF-SR"} {
		w, err := workload.ByName(name)
		if err != nil {
			return Result{}, err
		}
		ladder, err := core.UtilizationLadder(w)
		if err != nil {
			return Result{}, err
		}
		for _, u := range ladder {
			t.AddRowf(w.Type.String(), u.Kind.String(), u.CPUTotal(), u.MemoryTotal(), u.PCIeTotal())
		}
	}
	return tables(t), nil
}
