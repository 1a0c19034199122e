package experiments

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/collective"
	"trainbox/internal/core"
	"trainbox/internal/eth"
	"trainbox/internal/fpga"
	"trainbox/internal/report"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// This file holds the ablation studies DESIGN.md calls out: design
// choices the paper asserts, exercised as parameter sweeps over the
// models so their sensitivity is visible.

// AblationFPGAProvisioning sweeps the number of preparation accelerators
// per train box (without the prep-pool) for one workload: the
// provisioning question behind Section IV-D's observation that in-box
// capacity "is statically determined at the deployment".
func AblationFPGAProvisioning(name string) (*report.Table, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Ablation — in-box FPGA provisioning for %s (256 accels, no pool)", name),
		"FPGAs/box", "throughput (samples/s)", "accel-equivalents", "bottleneck")
	for _, perBox := range []int{1, 2, 3, 4} {
		sys, err := arch.Build(arch.Config{
			Kind: arch.TrainBoxNoPool, NumAccels: workload.TargetAccelerators,
			FPGAsPerBox: perBox,
		})
		if err != nil {
			return nil, err
		}
		res, err := core.Solve(sys, w)
		if err != nil {
			return nil, err
		}
		t.AddRowf(perBox, float64(res.Throughput),
			float64(res.Throughput)/float64(w.AccelRate), res.Bottleneck)
	}
	return t, nil
}

// AblationEthernet sweeps the prep-pool link bandwidth for one audio
// workload's per-box pool draw: the paper's choice of Ethernet over PCIe
// rests on bandwidth parity (Section IV-D), and this shows where slower
// links would strangle the pool.
func AblationEthernet(name string) (*report.Table, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	required := units.SamplesPerSec(8 * float64(w.AccelRate)) // per box
	t := report.NewTable(
		fmt.Sprintf("Ablation — prep-pool link bandwidth for %s (per train box)", name),
		"link", "pool rate (samples/s)", "total rate", "satisfied")
	links := []struct {
		label string
		bw    units.BytesPerSec
	}{
		{"10 GbE (1.25 GB/s)", 1.25 * units.GBps},
		{"25 GbE (3.125 GB/s)", 3.125 * units.GBps},
		{"100 GbE (12.5 GB/s)", 12.5 * units.GBps},
		{"2×100 GbE (25 GB/s)", 25 * units.GBps},
	}
	for _, l := range links {
		net, err := eth.NewNetwork(eth.LinkSpec{Bandwidth: l.bw}, eth.SwitchSpec{Ports: 64})
		if err != nil {
			return nil, err
		}
		alloc, err := fpga.SizePool(fpga.PoolRequest{
			RequiredRate: required, InBoxFPGAs: 2, Type: w.Type,
			OffloadBytesPerSample: w.Prep.StoredBytes + w.Prep.TensorBytes,
		}, net, 64)
		if err != nil {
			return nil, err
		}
		t.AddRowf(l.label, float64(alloc.PoolRate), float64(alloc.TotalRate()), alloc.Satisfied)
	}
	return t, nil
}

// AblationSyncScheme compares synchronization schemes (naive central,
// binomial tree, chunked ring) on compute+sync throughput at 256
// accelerators — the Section II-B argument for rings, quantified per
// workload.
func AblationSyncScheme() (*report.Table, error) {
	t := report.NewTable("Ablation — synchronization scheme at 256 accelerators (samples/s)",
		"workload", "central", "tree", "ring", "ring/central ×")
	n := workload.TargetAccelerators
	ring := collective.DefaultRingModel()
	tree := collective.TreeModel{LinkBandwidth: ring.LinkBandwidth, HopLatency: ring.HopLatency}
	central := collective.CentralModel{LinkBandwidth: ring.LinkBandwidth}
	for _, w := range workload.Workloads() {
		compute := core.ComputeTime(w, w.BatchSize)
		tput := func(sync float64) float64 {
			return float64(n*w.BatchSize) / (compute + sync)
		}
		c := tput(central.Latency(n, w.ModelBytes))
		tr := tput(tree.Latency(n, w.ModelBytes))
		r := tput(ring.Latency(n, w.ModelBytes))
		t.AddRowf(w.Name, c, tr, r, r/c)
	}
	return t, nil
}

// AblationRCCapacity sweeps the root complex's aggregate capacity for
// the B+Acc architecture: the "just buy a bigger host" counterfactual
// that clustering makes unnecessary.
func AblationRCCapacity(name string) (*report.Table, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Ablation — root-complex capacity under B+Acc+P2P for %s (256 accels)", name),
		"RC capacity ×Gen3", "throughput (samples/s)", "bottleneck", "TrainBox ratio")
	tbSys, err := arch.Build(arch.Config{Kind: arch.TrainBox, NumAccels: workload.TargetAccelerators})
	if err != nil {
		return nil, err
	}
	tb, err := core.Solve(tbSys, w)
	if err != nil {
		return nil, err
	}
	for _, mult := range []float64{1, 2, 4, 8} {
		sys, err := arch.Build(arch.Config{Kind: arch.BaselineAccP2P, NumAccels: workload.TargetAccelerators})
		if err != nil {
			return nil, err
		}
		sys.RCCap = units.BytesPerSec(float64(sys.RCCap) * mult)
		res, err := core.Solve(sys, w)
		if err != nil {
			return nil, err
		}
		t.AddRowf(mult, float64(res.Throughput), res.Bottleneck,
			float64(tb.Throughput)/float64(res.Throughput))
	}
	return t, nil
}

// AblationPoolSharing exercises the multi-job pool scheduler: three jobs
// with different input types compete for a shrinking pool.
func AblationPoolSharing() (*report.Table, error) {
	jobs := []fpga.JobRequest{
		{Name: "Resnet-50 (4 boxes)", Type: workload.Image,
			RequiredRate: units.SamplesPerSec(32 * 7431), InBoxRate: 8 * fpga.ImagePrepRate},
		{Name: "TF-SR (4 boxes)", Type: workload.Audio,
			RequiredRate: units.SamplesPerSec(32 * 2001), InBoxRate: 8 * fpga.AudioPrepRate},
		{Name: "Inception-v4 (4 boxes)", Type: workload.Image,
			RequiredRate: units.SamplesPerSec(32 * 1669), InBoxRate: 8 * fpga.ImagePrepRate},
	}
	t := report.NewTable("Ablation — multi-job prep-pool sharing",
		"pool FPGAs", "job", "granted FPGAs", "deficit covered %", "satisfied")
	for _, pool := range []int{32, 16, 8, 0} {
		allocs, err := fpga.SchedulePool(jobs, pool)
		if err != nil {
			return nil, err
		}
		for _, a := range allocs {
			t.AddRowf(pool, a.Name, a.GrantedFPGAs, 100*a.Fraction, a.Satisfied)
		}
	}
	return t, nil
}
