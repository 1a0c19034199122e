// Command trainbox-topo builds a server architecture and prints its PCIe
// topology, device summary, and solved bottleneck analysis for one
// workload — the operator's inspection tool.
//
//	trainbox-topo -arch trainbox -accels 32 -workload Resnet-50
//	trainbox-topo -arch baseline -accels 16 -tree
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"trainbox/internal/arch"
	"trainbox/internal/core"
	"trainbox/internal/report"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

func main() {
	archName := flag.String("arch", "trainbox", "architecture: baseline | acc | p2p | gen4 | trainbox-nopool | trainbox")
	accels := flag.Int("accels", 32, "number of neural network accelerators")
	wl := flag.String("workload", "Resnet-50", "workload to solve for")
	tree := flag.Bool("tree", false, "print the full PCIe tree")
	replay := flag.Int("replay", 0, "replay N overlapped training steps and print the pipeline timeline")
	plan := flag.Float64("plan", 0, "instead of building, plan the smallest TrainBox rack for this samples/s target")
	flag.Parse()
	if *plan < 0 || *replay < 0 {
		fmt.Fprintln(os.Stderr, "trainbox-topo: -plan and -replay must be ≥ 0")
		os.Exit(2)
	}

	kinds := map[string]arch.Kind{
		"baseline":        arch.Baseline,
		"acc":             arch.BaselineAcc,
		"p2p":             arch.BaselineAccP2P,
		"gen4":            arch.BaselineAccP2PGen4,
		"trainbox-nopool": arch.TrainBoxNoPool,
		"trainbox":        arch.TrainBox,
	}
	kind, ok := kinds[strings.ToLower(*archName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "trainbox-topo: unknown architecture %q\n", *archName)
		os.Exit(2)
	}
	w, err := workload.ByName(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainbox-topo:", err)
		os.Exit(2)
	}
	if *plan > 0 {
		p, err := core.PlanRack(w, units.SamplesPerSec(*plan), 4096)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainbox-topo:", err)
			os.Exit(1)
		}
		fmt.Printf("plan for %s at %.0f samples/s:\n", p.Workload, *plan)
		fmt.Printf("  %d train boxes (%d accelerators, %d in-box FPGAs, %d SSDs)\n",
			p.Boxes, p.Accels, p.InBoxFPGAs, p.SSDs)
		fmt.Printf("  prep-pool: %d FPGAs\n", p.PoolFPGAs)
		fmt.Printf("  achieved %.0f samples/s (bottleneck: %s)\n", float64(p.Achieved), p.Bottleneck)
		return
	}
	sys, err := arch.Build(arch.Config{Kind: kind, NumAccels: *accels})
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainbox-topo:", err)
		os.Exit(1)
	}

	stats := sys.Topo.Summarize()
	fmt.Printf("%v with %d accelerators — %d PCIe nodes, depth %d\n",
		kind, *accels, stats.Nodes, stats.MaxDepth)
	for k, c := range stats.ByKind {
		fmt.Printf("  %-14v %d\n", k, c)
	}
	if len(sys.Boxes) > 0 {
		fmt.Printf("  train boxes    %d (pool: %d FPGAs)\n", len(sys.Boxes), sys.Config.PoolFPGAs)
	}
	fmt.Println()

	if *tree {
		fmt.Print(sys.Topo.Describe())
		fmt.Println()
	}

	res, err := core.Solve(sys, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainbox-topo:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s:\n%s", w.Name, res.Explain())

	if *replay > 0 {
		sim, err := core.SimulateTraining(sys, w, *replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainbox-topo:", err)
			os.Exit(1)
		}
		fmt.Printf("\nreplay of %d steps: %.0f samples/s, accel idle %.0f%%, prep idle %.0f%%\n",
			sim.Steps, float64(sim.Throughput), 100*sim.AccelIdle, 100*sim.PrepIdle)
		fmt.Print(report.Gantt("overlapped pipeline (prep for batch i+1 vs compute for batch i)", sim.Timeline, 72))
	}
}
