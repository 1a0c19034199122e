// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's models and substrates. Each Fig*/
// Table* function returns a rendered report table plus the headline
// numbers the paper reports, so callers (the CLIs, the benchmark
// harness, EXPERIMENTS.md) can compare paper-vs-measured directly.
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

// Fig2a renders the hardware-trend context series.
func Fig2a() *report.Table {
	t := report.NewTable("Figure 2a — normalized performance trends of NN hardware",
		"year", "asic", "interconnect")
	for _, p := range workload.HardwareTrends() {
		t.AddRowf(p.Year, p.ASIC, p.Interconnect)
	}
	return t
}

// Fig2bResult carries Figure 2b's headline: the saturation level of
// normalized ring-synchronization latency.
type Fig2bResult struct {
	Table *report.Table
	// NormalizedAt256 should saturate just above 2 (Figure 2b).
	NormalizedAt256 float64
}

// Fig2b computes normalized ring all-reduce latency versus accelerator
// count for a 4 KB-chunked ring.
func Fig2b() Fig2bResult {
	m := collective.DefaultRingModel()
	const modelBytes = 100 * units.MB
	t := report.NewTable("Figure 2b — ring synchronization latency (normalized to n=2)",
		"accelerators", "normalized latency")
	var at256 float64
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		norm := m.NormalizedLatency(n, modelBytes)
		t.AddRowf(n, norm)
		if n == 256 {
			at256 = norm
		}
	}
	return Fig2bResult{Table: t, NormalizedAt256: at256}
}

// Fig3Result carries Figure 3's headline ratio.
type Fig3Result struct {
	Table *report.Table
	// FinalPrepOverOthers is preparation time over compute+sync time in
	// the fully optimized configuration (paper: 54.9×).
	FinalPrepOverOthers float64
}

// Fig3 computes the ResNet-50 latency decomposition across the paper's
// optimization ladder.
func Fig3() (Fig3Result, error) {
	w, err := workload.ByName("Resnet-50")
	if err != nil {
		return Fig3Result{}, err
	}
	t := report.NewTable("Figure 3 — ResNet-50 latency decomposition across optimizations",
		"config", "prep share %", "compute share %", "sync share %", "prep/others ×")
	var res Fig3Result
	for _, cfg := range core.Fig3Ladder() {
		b, err := core.DecomposeFig3(w, cfg)
		if err != nil {
			return Fig3Result{}, err
		}
		total := b.Total()
		ratio := b.PrepTotal() / b.OthersTotal()
		t.AddRowf(cfg.Name, 100*b.PrepTotal()/total, 100*b.ModelCompute/total,
			100*b.ModelSync/total, ratio)
		res.FinalPrepOverOthers = ratio
	}
	res.Table = t
	return res, nil
}

// Fig8Result carries the baseline-scalability headline.
type Fig8Result struct {
	Table *report.Table
	// MaxSaturation is the largest effective accelerator count any
	// workload reaches (paper: ≈18).
	MaxSaturation float64
}

// Fig8 computes baseline throughput (normalized to one accelerator)
// versus scale for all workloads.
func Fig8() (Fig8Result, error) {
	scales := core.DefaultScales()
	headers := []string{"workload"}
	for _, n := range scales {
		headers = append(headers, fmt.Sprintf("n=%d", n))
	}
	t := report.NewTable("Figure 8 — baseline scalability (normalized throughput)", headers...)
	var res Fig8Result
	for _, w := range workload.Workloads() {
		row := []any{w.Name}
		var base, last float64
		for _, n := range scales {
			sys, err := arch.Build(arch.Config{Kind: arch.Baseline, NumAccels: n})
			if err != nil {
				return Fig8Result{}, err
			}
			r, err := core.Solve(sys, w)
			if err != nil {
				return Fig8Result{}, err
			}
			if n == 1 {
				base = float64(r.Throughput)
			}
			last = float64(r.Throughput) / base
			row = append(row, last)
		}
		if last > res.MaxSaturation {
			res.MaxSaturation = last
		}
		t.AddRowf(row...)
	}
	res.Table = t
	return res, nil
}

// Fig9Result carries the latency-decomposition headline.
type Fig9Result struct {
	Table *report.Table
	// MeanPrepShare is data preparation's average share of per-batch
	// latency at 256 accelerators (paper: 98.1%).
	MeanPrepShare float64
}

// Fig9 computes the per-workload latency decomposition of the baseline
// at 256 accelerators.
func Fig9() (Fig9Result, error) {
	t := report.NewTable("Figure 9 — baseline latency decomposition at 256 accelerators (%)",
		"workload", "data transfer", "formatting", "augmentation", "compute", "sync", "prep share")
	ws := workload.Workloads()
	var sum float64
	for _, w := range ws {
		b, err := core.DecomposeBaseline(w, workload.TargetAccelerators)
		if err != nil {
			return Fig9Result{}, err
		}
		total := b.Total()
		t.AddRowf(w.Name,
			100*b.DataTransfer/total, 100*b.Formatting/total, 100*b.Augmentation/total,
			100*b.ModelCompute/total, 100*b.ModelSync/total, 100*b.PrepShare())
		sum += b.PrepShare()
	}
	return Fig9Result{Table: t, MeanPrepShare: sum / float64(len(ws))}, nil
}

// Fig10Result carries the resource-requirement headlines.
type Fig10Result struct {
	CPU, Memory, PCIe *report.Table
	// Maxima at 256 accelerators (paper: 100.7×, 17.9×, 18.0×; this
	// reproduction's PCIe model lands lower — see EXPERIMENTS.md).
	MaxCPU, MaxMemory, MaxPCIe float64
	// MaxCores is the absolute core requirement (paper: 4,833).
	MaxCores float64
}

// Fig10 computes required host resources (normalized to DGX-2) versus
// scale for all workloads.
func Fig10() (Fig10Result, error) {
	scales := core.DefaultScales()
	headers := []string{"workload"}
	for _, n := range scales {
		headers = append(headers, fmt.Sprintf("n=%d", n))
	}
	var res Fig10Result
	res.CPU = report.NewTable("Figure 10a — required CPU cores (× DGX-2)", headers...)
	res.Memory = report.NewTable("Figure 10b — required memory bandwidth (× DGX-2)", headers...)
	res.PCIe = report.NewTable("Figure 10c — required PCIe bandwidth at RC (× DGX-2)", headers...)
	for _, w := range workload.Workloads() {
		cpuRow := []any{w.Name}
		memRow := []any{w.Name}
		pcieRow := []any{w.Name}
		for _, n := range scales {
			r, err := core.RequiredResources(w, n)
			if err != nil {
				return Fig10Result{}, err
			}
			cpuRow = append(cpuRow, r.CPU)
			memRow = append(memRow, r.MemoryBW)
			pcieRow = append(pcieRow, r.PCIeBW)
			if n == workload.TargetAccelerators {
				if r.CPU > res.MaxCPU {
					res.MaxCPU = r.CPU
				}
				if r.MemoryBW > res.MaxMemory {
					res.MaxMemory = r.MemoryBW
				}
				if r.PCIeBW > res.MaxPCIe {
					res.MaxPCIe = r.PCIeBW
				}
				if r.Cores > res.MaxCores {
					res.MaxCores = r.Cores
				}
			}
		}
		res.CPU.AddRowf(cpuRow...)
		res.Memory.AddRowf(memRow...)
		res.PCIe.AddRowf(pcieRow...)
	}
	return res, nil
}

// Fig11 renders the baseline host-resource consumption decomposition for
// one image and one audio workload (per-sample shares by category).
func Fig11() (*report.Table, error) {
	t := report.NewTable("Figure 11 — host resource consumption decomposition (baseline, %)",
		"input", "resource", "ssd read", "formatting", "augmentation", "data load", "others")
	for _, name := range []string{"Resnet-50", "TF-SR"} {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
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
	return t, nil
}

// TableI renders the workload summary.
func TableI() *report.Table {
	t := report.NewTable("Table I — workloads",
		"type", "name", "task", "batch", "model MB", "samples/s")
	for _, w := range workload.Workloads() {
		t.AddRowf(w.Kind, w.Name, w.Task, w.BatchSize,
			float64(w.ModelBytes)/1e6, float64(w.AccelRate))
	}
	return t
}

// fpgaTable renders one engine configuration with per-engine and total
// utilization.
func fpgaTable(title string, engines []fpga.Engine) (*report.Table, error) {
	dev := fpga.XCVU9P()
	t := report.NewTable(title, "engine", "LUTs", "FF", "BRAM", "DSP")
	for _, e := range engines {
		t.AddRowf(e.Name, e.LUTs, e.FFs, e.BRAM, e.DSP)
	}
	u, err := dev.Utilization(engines)
	if err != nil {
		return nil, err
	}
	t.AddRowf("Total (%)", 100*u.LUTs, 100*u.FFs, 100*u.BRAM, 100*u.DSP)
	return t, nil
}

// TableII renders the image-engine FPGA utilization.
func TableII() (*report.Table, error) {
	return fpgaTable("Table II — FPGA resource utilization (image)", fpga.ImageEngines())
}

// TableIII renders the audio-engine FPGA utilization.
func TableIII() (*report.Table, error) {
	return fpgaTable("Table III — FPGA resource utilization (audio)", fpga.AudioEngines())
}

// Fig19Result carries the headline speedups.
type Fig19Result struct {
	Table *report.Table
	// AvgTrainBox is the mean TrainBox speedup over the baseline
	// (paper: 44.4×); AvgAcc is acceleration alone (paper: 3.32×);
	// MaxTrainBox/MaxName identify the largest improvement
	// (paper: 84.3× on TF-AA); ClusteringGain is TrainBox over
	// B+Acc+P2P (paper: 13.4×).
	AvgTrainBox, AvgAcc, MaxTrainBox, ClusteringGain float64
	MaxName                                          string
}

// Fig19 computes per-workload throughput of every architecture at 256
// accelerators, normalized to the baseline.
func Fig19() (Fig19Result, error) {
	kinds := arch.Kinds()
	headers := []string{"workload"}
	for _, k := range kinds {
		headers = append(headers, k.String())
	}
	t := report.NewTable("Figure 19 — normalized throughput at 256 accelerators", headers...)
	var res Fig19Result
	var sumTB, sumAcc, sumP2P float64
	for _, w := range workload.Workloads() {
		row := []any{w.Name}
		var base float64
		var perKind = map[arch.Kind]float64{}
		for _, k := range kinds {
			sys, err := arch.Build(arch.Config{Kind: k, NumAccels: workload.TargetAccelerators})
			if err != nil {
				return Fig19Result{}, err
			}
			r, err := core.Solve(sys, w)
			if err != nil {
				return Fig19Result{}, err
			}
			if k == arch.Baseline {
				base = float64(r.Throughput)
			}
			sp := float64(r.Throughput) / base
			perKind[k] = sp
			row = append(row, sp)
		}
		t.AddRowf(row...)
		sumTB += perKind[arch.TrainBox]
		sumAcc += perKind[arch.BaselineAcc]
		sumP2P += perKind[arch.BaselineAccP2P]
		if perKind[arch.TrainBox] > res.MaxTrainBox {
			res.MaxTrainBox = perKind[arch.TrainBox]
			res.MaxName = w.Name
		}
	}
	n := float64(len(workload.Workloads()))
	res.AvgTrainBox = sumTB / n
	res.AvgAcc = sumAcc / n
	res.ClusteringGain = sumTB / sumP2P
	res.Table = t
	return res, nil
}

// Fig20Result carries the batch-sweep headline.
type Fig20Result struct {
	Table *report.Table
	// SpeedupAtLargest is TrainBox/baseline at batch 8192.
	SpeedupAtLargest float64
}

// Fig20 sweeps ResNet-50 batch sizes on baseline and TrainBox at 256
// accelerators; throughput is normalized to the baseline at batch 8.
func Fig20() (Fig20Result, error) {
	w, err := workload.ByName("Resnet-50")
	if err != nil {
		return Fig20Result{}, err
	}
	base, err := arch.Build(arch.Config{Kind: arch.Baseline, NumAccels: workload.TargetAccelerators})
	if err != nil {
		return Fig20Result{}, err
	}
	tb, err := arch.Build(arch.Config{Kind: arch.TrainBox, NumAccels: workload.TargetAccelerators})
	if err != nil {
		return Fig20Result{}, err
	}
	t := report.NewTable("Figure 20 — ResNet-50 batch-size sweep at 256 accelerators (normalized)",
		"batch", "baseline", "trainbox", "speedup")
	var res Fig20Result
	var norm float64
	for _, batch := range []int{8, 32, 128, 512, 2048, 8192} {
		rb, err := core.SolveBatch(base, w, batch)
		if err != nil {
			return Fig20Result{}, err
		}
		rt, err := core.SolveBatch(tb, w, batch)
		if err != nil {
			return Fig20Result{}, err
		}
		if norm == 0 {
			norm = float64(rb.Throughput)
		}
		speedup := float64(rt.Throughput) / float64(rb.Throughput)
		t.AddRowf(batch, float64(rb.Throughput)/norm, float64(rt.Throughput)/norm, speedup)
		res.SpeedupAtLargest = speedup
	}
	res.Table = t
	return res, nil
}

// Fig21Config lists the scalability-study configurations.
type fig21Config struct {
	name string
	cfg  func(n int) arch.Config
}

func fig21Configs() []fig21Config {
	return []fig21Config{
		{"Baseline (CPU)", func(n int) arch.Config { return arch.Config{Kind: arch.Baseline, NumAccels: n} }},
		{"Baseline+Acc (GPU)", func(n int) arch.Config {
			return arch.Config{Kind: arch.BaselineAcc, NumAccels: n, Prep: arch.PrepGPU}
		}},
		{"Baseline+Acc (FPGA)", func(n int) arch.Config {
			return arch.Config{Kind: arch.BaselineAcc, NumAccels: n, Prep: arch.PrepFPGA}
		}},
		{"TrainBox w/o prep-pool", func(n int) arch.Config { return arch.Config{Kind: arch.TrainBoxNoPool, NumAccels: n} }},
		{"TrainBox", func(n int) arch.Config { return arch.Config{Kind: arch.TrainBox, NumAccels: n} }},
	}
}

// Fig21Result carries the scalability curves for one workload.
type Fig21Result struct {
	Table *report.Table
	// FinalByConfig maps each configuration to its normalized throughput
	// (accelerator-equivalents) at 256 accelerators.
	FinalByConfig map[string]float64
}

// Fig21 computes the scalability study for the named workload
// (the paper shows Inception-v4 and TF-SR). Throughput is normalized to
// one accelerator's rate, so the ideal curve is y = n.
func Fig21(name string) (Fig21Result, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return Fig21Result{}, err
	}
	scales := core.DefaultScales()
	headers := []string{"config"}
	for _, n := range scales {
		headers = append(headers, fmt.Sprintf("n=%d", n))
	}
	t := report.NewTable(fmt.Sprintf("Figure 21 — scalability of %s (accel-equivalents)", name), headers...)
	res := Fig21Result{FinalByConfig: map[string]float64{}}
	for _, c := range fig21Configs() {
		row := []any{c.name}
		for _, n := range scales {
			sys, err := arch.Build(c.cfg(n))
			if err != nil {
				return Fig21Result{}, err
			}
			r, err := core.Solve(sys, w)
			if err != nil {
				return Fig21Result{}, err
			}
			equiv := float64(r.Throughput) / float64(w.AccelRate)
			row = append(row, equiv)
			if n == workload.TargetAccelerators {
				res.FinalByConfig[c.name] = equiv
			}
		}
		t.AddRowf(row...)
	}
	res.Table = t
	return res, nil
}

// Fig22 renders the host-resource utilization ladder for one image and
// one audio workload.
func Fig22() (*report.Table, error) {
	t := report.NewTable("Figure 22 — host resource utilization (normalized to baseline)",
		"input", "architecture", "CPU", "Memory BW", "PCIe BW")
	for _, name := range []string{"Resnet-50", "TF-SR"} {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ladder, err := core.UtilizationLadder(w)
		if err != nil {
			return nil, err
		}
		for _, u := range ladder {
			t.AddRowf(w.Type.String(), u.Kind.String(), u.CPUTotal(), u.MemoryTotal(), u.PCIeTotal())
		}
	}
	return t, nil
}
