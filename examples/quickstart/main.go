// Quickstart: build the paper's baseline and TrainBox architectures at
// 256 accelerators, solve both for ResNet-50, and print where the
// bottleneck sits and what TrainBox buys. It then runs the train
// initializer on the TrainBox rack (data distribution, dummy-batch
// measurement, prep-pool sizing — Section V-A) for an image job that is
// self-sufficient and an audio job that draws on the pool — the
// repository's two-minute tour of the public API.
package main

import (
	"fmt"
	"log"

	"trainbox/internal/arch"
	"trainbox/internal/core"
	"trainbox/internal/report"
	"trainbox/internal/workload"
)

func main() {
	accels := workload.TargetAccelerators
	w, err := workload.ByName("Resnet-50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Workload: %s — %v per TPU v3-8, batch %d, %.1f MB model\n\n",
		w.Name, w.AccelRate, w.BatchSize, float64(w.ModelBytes)/1e6)

	var rows []struct {
		kind arch.Kind
		res  core.Result
	}
	var rack *arch.System
	for _, kind := range arch.Kinds() {
		sys, err := arch.Build(arch.Config{Kind: kind, NumAccels: accels})
		if err != nil {
			log.Fatal(err)
		}
		if kind == arch.TrainBox {
			rack = sys
		}
		res, err := core.Solve(sys, w)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, struct {
			kind arch.Kind
			res  core.Result
		}{kind, res})
	}

	t := report.NewTable(fmt.Sprintf("ResNet-50 at %d accelerators", accels),
		"architecture", "throughput (samples/s)", "speedup", "bottleneck")
	base := float64(rows[0].res.Throughput)
	labels := make([]string, 0, len(rows))
	values := make([]float64, 0, len(rows))
	for _, r := range rows {
		t.AddRowf(r.kind.String(), float64(r.res.Throughput),
			fmt.Sprintf("%.1f×", float64(r.res.Throughput)/base), r.res.Bottleneck)
		labels = append(labels, r.kind.String())
		values = append(values, float64(r.res.Throughput))
	}
	fmt.Println(t.String())
	fmt.Println(report.BarChart("throughput", labels, values, 40))

	fmt.Println("The baseline burns all 48 host cores on JPEG decode and augmentation;")
	fmt.Println("offload moves the bottleneck to the PCIe root complex; clustering the")
	fmt.Println("datapath inside train boxes removes the host from the loop entirely.")

	// The train initializer on the TrainBox rack. It only needs key
	// names to shard the dataset over the boxes' SSDs.
	fmt.Printf("\nTrainBox rack: %d train boxes — per box %d accels, %d FPGAs, %d SSDs; pool of %d FPGAs\n\n",
		len(rack.Boxes), len(rack.Boxes[0].Accels), len(rack.Boxes[0].FPGAs),
		len(rack.Boxes[0].SSDs), rack.Config.PoolFPGAs)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("item-%05d", i)
	}
	for _, name := range []string{"Inception-v4", "TF-SR"} {
		w, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := core.InitializeTraining(rack, w, keys)
		if err != nil {
			log.Fatal(err)
		}
		alloc := plan.PerBox[0]
		fmt.Printf("-- %s: %d keys per box --\n", name, len(plan.Shards[0]))
		fmt.Printf("  per-batch time %.3f s → required prep %.0f samples/s; feasible: %v\n",
			plan.BatchTime, float64(plan.RequiredPrepRate), plan.Feasible)
		fmt.Printf("  per box: in-box %.0f samples/s + pool %.0f (%.0f%% extra FPGA resources, %d devices)\n\n",
			float64(alloc.InBoxRate), float64(alloc.PoolRate),
			100*alloc.ExtraResourceFraction, alloc.PoolFPGAs)
	}
}
