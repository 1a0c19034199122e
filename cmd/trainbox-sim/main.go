// Command trainbox-sim runs experiments from the TrainBox reproduction
// and prints their tables.
//
// Usage:
//
//	trainbox-sim -exp fig19          # one experiment
//	trainbox-sim -exp all            # every experiment, in -list order
//	trainbox-sim -list               # list experiment names
//	trainbox-sim -exp fig21 -workload TF-SR
//	trainbox-sim -exp prof           # profile the real Go data-prep kernels
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"trainbox/internal/experiments"
	"trainbox/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the chosen experiments and prints their tables
// to stdout. It returns the exit status: 2 for a usage error, 1 for a
// failed experiment.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("trainbox-sim", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment to run (see -list), or \"all\"")
	list := fs.Bool("list", false, "list experiment names and exit")
	wl := fs.String("workload", "Inception-v4", "workload for fig21, ablation-fpga, ablation-rc and failure")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	w, err := workload.ByName(*wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trainbox-sim: %v\n", err)
		return 2
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range experiments.All {
			fmt.Fprintln(stdout, "  ", e.Name)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}
	var selected []experiments.Experiment
	for _, e := range experiments.All {
		if *exp == "all" || e.Name == *exp {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "trainbox-sim: unknown experiment %q (try -list)\n", *exp)
		return 2
	}
	for _, e := range selected {
		res, err := e.Run(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trainbox-sim: %s: %v\n", e.Name, err)
			return 1
		}
		for _, t := range res.Tables {
			fmt.Fprintln(stdout, t.String())
		}
	}
	return 0
}
