// Command trainbox-sim runs experiments from the TrainBox reproduction
// and prints their tables.
//
// Usage:
//
//	trainbox-sim -exp fig19          # one experiment
//	trainbox-sim -exp all            # every experiment, in -list order
//	trainbox-sim -list               # list experiment names
//	trainbox-sim -exp fig21 -workload TF-SR
//	trainbox-sim -exp fig19 -csv     # emit CSV instead of aligned text
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"trainbox/internal/experiments"
	"trainbox/internal/report"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (see -list), or \"all\"")
	list := flag.Bool("list", false, "list experiment names and exit")
	wl := flag.String("workload", "Inception-v4", "workload for fig21")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	flag.Parse()

	runners := map[string]func() ([]*report.Table, error){
		"table1": func() ([]*report.Table, error) { return []*report.Table{experiments.TableI()}, nil },
		"table2": func() ([]*report.Table, error) {
			t, err := experiments.TableII()
			return []*report.Table{t}, err
		},
		"table3": func() ([]*report.Table, error) {
			t, err := experiments.TableIII()
			return []*report.Table{t}, err
		},
		"fig2a": func() ([]*report.Table, error) { return []*report.Table{experiments.Fig2a()}, nil },
		"fig2b": func() ([]*report.Table, error) {
			r := experiments.Fig2b()
			return []*report.Table{r.Table}, nil
		},
		"fig3": func() ([]*report.Table, error) {
			r, err := experiments.Fig3()
			return []*report.Table{r.Table}, err
		},
		"fig5": func() ([]*report.Table, error) {
			r, err := experiments.Fig5(experiments.DefaultFig5Config())
			return []*report.Table{r.Table}, err
		},
		"fig8": func() ([]*report.Table, error) {
			r, err := experiments.Fig8()
			return []*report.Table{r.Table}, err
		},
		"fig9": func() ([]*report.Table, error) {
			r, err := experiments.Fig9()
			return []*report.Table{r.Table}, err
		},
		"fig10": func() ([]*report.Table, error) {
			r, err := experiments.Fig10()
			if err != nil {
				return nil, err
			}
			return []*report.Table{r.CPU, r.Memory, r.PCIe}, nil
		},
		"fig11": func() ([]*report.Table, error) {
			t, err := experiments.Fig11()
			return []*report.Table{t}, err
		},
		"fig19": func() ([]*report.Table, error) {
			r, err := experiments.Fig19()
			if err != nil {
				return nil, err
			}
			fmt.Printf("avg TrainBox speedup %.1f× (paper 44.4×), avg B+Acc %.1f× (paper 3.32×), max %.1f× on %s (paper 84.3× on TF-AA)\n",
				r.AvgTrainBox, r.AvgAcc, r.MaxTrainBox, r.MaxName)
			return []*report.Table{r.Table}, nil
		},
		"fig20": func() ([]*report.Table, error) {
			r, err := experiments.Fig20()
			return []*report.Table{r.Table}, err
		},
		"fig21": func() ([]*report.Table, error) {
			r, err := experiments.Fig21(*wl)
			return []*report.Table{r.Table}, err
		},
		"fig22": func() ([]*report.Table, error) {
			t, err := experiments.Fig22()
			return []*report.Table{t}, err
		},
		"ablation-fpga": func() ([]*report.Table, error) {
			t, err := experiments.AblationFPGAProvisioning(*wl)
			return []*report.Table{t}, err
		},
		"ablation-ethernet": func() ([]*report.Table, error) {
			t, err := experiments.AblationEthernet("TF-SR")
			return []*report.Table{t}, err
		},
		"ablation-sync": func() ([]*report.Table, error) {
			t, err := experiments.AblationSyncScheme()
			return []*report.Table{t}, err
		},
		"ablation-rc": func() ([]*report.Table, error) {
			t, err := experiments.AblationRCCapacity(*wl)
			return []*report.Table{t}, err
		},
		"ablation-pool": func() ([]*report.Table, error) {
			t, err := experiments.AblationPoolSharing()
			return []*report.Table{t}, err
		},
		"failure": func() ([]*report.Table, error) {
			t, err := experiments.FailureStudy(*wl)
			return []*report.Table{t}, err
		},
		"future": func() ([]*report.Table, error) {
			t, err := experiments.FutureWork()
			return []*report.Table{t}, err
		},
		"inference": func() ([]*report.Table, error) {
			t, err := experiments.InferenceStudy()
			return []*report.Table{t}, err
		},
		"staticprep": func() ([]*report.Table, error) {
			return []*report.Table{experiments.StaticPrep().Table}, nil
		},
		"huffman": func() ([]*report.Table, error) {
			r, err := experiments.HuffmanStudy(8)
			return []*report.Table{r.Table}, err
		},
		"planner": func() ([]*report.Table, error) {
			t, err := experiments.PlannerStudy()
			return []*report.Table{t}, err
		},
		"preppool": func() ([]*report.Table, error) {
			t, err := experiments.DynamicPoolStudy()
			return []*report.Table{t}, err
		},
		"autoscale": func() ([]*report.Table, error) {
			r, err := experiments.AutoscaleStudy()
			return []*report.Table{r.Table}, err
		},
		"dscache": func() ([]*report.Table, error) {
			r, err := experiments.CacheStudy()
			if err != nil {
				return nil, err
			}
			r.Table.Title += fmt.Sprintf(" — 4 consumers amortize %d decodes to %d (%.1f×)",
				r.UncachedDecodes, r.CachedDecodes, r.Amortization)
			return []*report.Table{r.Table}, nil
		},
		"sync": func() ([]*report.Table, error) {
			r, err := experiments.SyncStudy()
			if err != nil {
				return nil, err
			}
			r.Table.Title += fmt.Sprintf(" — in-network %.1f× over host eth ring at 256", r.InNetworkSpeedup)
			return []*report.Table{r.Table}, nil
		},
	}

	names := make([]string, 0, len(runners))
	for name := range runners {
		names = append(names, name)
	}
	sort.Strings(names)

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, n := range names {
			fmt.Println("  ", n)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	selected := []string{*exp}
	if *exp == "all" {
		selected = names
	}
	for _, name := range selected {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "trainbox-sim: unknown experiment %q (try -list)\n", name)
			os.Exit(2)
		}
		tables, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "trainbox-sim: %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}
}
