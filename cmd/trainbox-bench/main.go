// Command trainbox-bench regenerates every table and figure of the
// paper's evaluation in one run and prints a paper-vs-measured summary —
// the data source for EXPERIMENTS.md.
//
// With -json <path> it additionally runs a live throughput harness over
// the real data path (executor, FPGA pool, training driver, all
// reporting into one metrics registry) and writes a schema-versioned, machine-readable report: per-experiment measured
// values, tracked throughput numbers, and the full metrics snapshot.
// That file is the BENCH.json artifact the CI perf-regression gate
// (cmd/benchdiff) compares against the committed BENCH_baseline.json.
//
// Output is deterministic and fail-fast: every experiment runs in a
// fixed order into a buffer, and nothing is printed until all of them
// have succeeded; the first failure aborts the run with a non-zero exit
// and no partial tables on stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/experiments"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/report"
	"trainbox/internal/serve"
	"trainbox/internal/storage"
	"trainbox/internal/train"
)

// benchSchema versions the JSON report format. Bump on incompatible
// changes; cmd/benchdiff refuses to compare mismatched major schemas.
// v1.1 adds the per-kernel matrix (ns/sample and allocs/sample per
// sample-path kernel) alongside v1's throughput metrics; v1.2 adds the
// latency map (lower is better — currently the elastic-jobs
// checkpoint-restore round trip); v1.3 adds the dscache map (the shared
// decode-cache tier's directional rows: hit rate and decode
// amortization at 4 concurrent consumers) and the warm cached-prepare
// kernel row; v1.4 adds the sync map (gradient-sync backend rows:
// bit-identity flag, analytical latencies at 256 accels, in-network
// speedup over a host Ethernet ring, and the ring's exact functional
// traffic count).
const benchSchema = "trainbox-bench/v1.4"

var (
	markdown = flag.Bool("md", false, "emit the paper-vs-measured summary as a markdown table")
	jsonPath = flag.String("json", "", "also run the live throughput harness and write a machine-readable BENCH.json to this path")
)

func main() {
	flag.Parse()
	if err := run(*markdown, *jsonPath); err != nil {
		fmt.Fprintf(os.Stderr, "trainbox-bench: %v\n", err)
		os.Exit(1)
	}
}

// experimentValue is one headline number in the JSON report.
type experimentValue struct {
	Experiment string  `json:"experiment"`
	Quantity   string  `json:"quantity"`
	Paper      string  `json:"paper"`
	Measured   float64 `json:"measured"`
	// Display carries non-numeric measured values (e.g. a workload name)
	// verbatim; Measured then holds the associated number if any.
	Display string `json:"display,omitempty"`
}

// benchReport is the schema-versioned artifact `-json` writes.
type benchReport struct {
	Schema      string             `json:"schema"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	CPUs        int                `json:"cpus"`
	GeneratedAt string             `json:"generated_at"`
	Experiments []experimentValue  `json:"experiments"`
	Throughput  map[string]float64 `json:"throughput"`
	// Kernels is the per-kernel sample-path matrix; allocs/sample is
	// gated by cmd/benchdiff, ns/sample is informational.
	Kernels map[string]kernelStat `json:"kernels"`
	// Latency holds lower-is-better nanosecond measurements (the
	// checkpoint-restore round trip); cmd/benchdiff gates growth.
	Latency map[string]float64 `json:"latency"`
	// DSCache holds the shared decode-cache tier's rows; each carries
	// its own gate direction so cmd/benchdiff can gate hit-rate drops
	// and decode-count growth with one threshold. The counts are exact
	// (single-flight makes decodes-per-key deterministic), so these rows
	// are immune to CI wall-clock noise.
	DSCache map[string]cacheRow `json:"dscache"`
	// Sync holds the gradient-sync backend rows; like DSCache each row
	// carries its own gate direction (cmd/benchdiff -sync-threshold).
	// Every value is either analytical or an exact counter, so the rows
	// are immune to CI wall-clock noise.
	Sync    map[string]cacheRow `json:"sync"`
	Metrics metrics.Snapshot    `json:"metrics"`
}

// cacheRow is one dscache measurement plus its gate direction.
type cacheRow struct {
	Value          float64 `json:"value"`
	HigherIsBetter bool    `json:"higher_is_better"`
}

// harness accumulates all output in memory so a mid-run failure never
// leaves partial tables on stdout, and the print order is exactly the
// fixed step order.
type harness struct {
	out     strings.Builder
	summary *report.Table
	rep     *benchReport
}

func (h *harness) print(t *report.Table) { h.out.WriteString(t.String() + "\n") }

// record adds one headline number to both the summary table and the
// JSON report.
func (h *harness) record(experiment, quantity, paper string, measured float64) {
	h.summary.AddRowf(experiment, quantity, paper, measured)
	h.rep.Experiments = append(h.rep.Experiments, experimentValue{
		Experiment: experiment, Quantity: quantity, Paper: paper, Measured: measured,
	})
}

// recordDisplay records a headline whose rendering is non-numeric,
// keeping the underlying number machine-readable.
func (h *harness) recordDisplay(experiment, quantity, paper, display string, measured float64) {
	h.summary.AddRowf(experiment, quantity, paper, display)
	h.rep.Experiments = append(h.rep.Experiments, experimentValue{
		Experiment: experiment, Quantity: quantity, Paper: paper, Measured: measured, Display: display,
	})
}

type step struct {
	name string
	fn   func(*harness) error
}

func run(md bool, jsonPath string) error {
	h := &harness{
		summary: report.NewTable("Paper vs measured summary",
			"experiment", "quantity", "paper", "measured"),
		rep: &benchReport{
			Schema:      benchSchema,
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			CPUs:        runtime.NumCPU(),
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Throughput:  map[string]float64{},
			Kernels:     map[string]kernelStat{},
			Latency:     map[string]float64{},
			DSCache:     map[string]cacheRow{},
			Sync:        map[string]cacheRow{},
		},
	}

	steps := []step{
		{"Table I", stepTableI},
		{"Table II", stepTableII},
		{"Table III", stepTableIII},
		{"Fig 2a", stepFig2a},
		{"Fig 2b", stepFig2b},
		{"Fig 3", stepFig3},
		{"Fig 5", stepFig5},
		{"Fig 8", stepFig8},
		{"Fig 9", stepFig9},
		{"Fig 10", stepFig10},
		{"Fig 11", stepFig11},
		{"Fig 19", stepFig19},
		{"Fig 20", stepFig20},
		{"Fig 21", stepFig21},
		{"Fig 22", stepFig22},
	}
	if jsonPath != "" {
		steps = append(steps, step{"kernel matrix", stepKernels},
			step{"checkpoint restore", stepCheckpoint},
			step{"dscache tier", stepDSCache},
			step{"sync backends", stepSync},
			step{"live throughput", stepLiveThroughput})
	}
	for _, s := range steps {
		if err := s.fn(h); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}

	if md {
		h.out.WriteString(h.summary.Markdown())
	} else {
		h.out.WriteString(h.summary.String())
	}
	fmt.Print(h.out.String())

	if jsonPath != "" {
		data, err := json.MarshalIndent(h.rep, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Printf("wrote %s (%s, %d experiments, %d tracked throughput metrics, %d kernels, %d latency metrics, %d cache rows, %d sync rows)\n",
			jsonPath, benchSchema, len(h.rep.Experiments), len(h.rep.Throughput), len(h.rep.Kernels), len(h.rep.Latency), len(h.rep.DSCache), len(h.rep.Sync))
	}
	return nil
}

func stepTableI(h *harness) error {
	h.print(experiments.TableI())
	return nil
}

func stepTableII(h *harness) error {
	t, err := experiments.TableII()
	if err != nil {
		return err
	}
	h.print(t)
	return nil
}

func stepTableIII(h *harness) error {
	t, err := experiments.TableIII()
	if err != nil {
		return err
	}
	h.print(t)
	return nil
}

func stepFig2a(h *harness) error {
	h.print(experiments.Fig2a())
	return nil
}

func stepFig2b(h *harness) error {
	f := experiments.Fig2b()
	h.print(f.Table)
	h.record("Fig 2b", "normalized ring latency at n=256", "≈2", f.NormalizedAt256)
	return nil
}

func stepFig3(h *harness) error {
	f, err := experiments.Fig3()
	if err != nil {
		return err
	}
	h.print(f.Table)
	h.record("Fig 3", "prep/others in final config", "54.9×", f.FinalPrepOverOthers)
	return nil
}

func stepFig5(h *harness) error {
	f, err := experiments.Fig5(experiments.DefaultFig5Config())
	if err != nil {
		return err
	}
	h.print(f.Table)
	h.record("Fig 5", "augmentation accuracy gap (points)", "29.1",
		100*(f.FinalWith-f.FinalWithout))
	return nil
}

func stepFig8(h *harness) error {
	f, err := experiments.Fig8()
	if err != nil {
		return err
	}
	h.print(f.Table)
	h.record("Fig 8", "baseline saturation (accel-equivalents)", "≈18", f.MaxSaturation)
	return nil
}

func stepFig9(h *harness) error {
	f, err := experiments.Fig9()
	if err != nil {
		return err
	}
	h.print(f.Table)
	h.record("Fig 9", "mean prep share at 256 accels (%)", "98.1", 100*f.MeanPrepShare)
	return nil
}

func stepFig10(h *harness) error {
	f, err := experiments.Fig10()
	if err != nil {
		return err
	}
	h.print(f.CPU)
	h.print(f.Memory)
	h.print(f.PCIe)
	h.record("Fig 10a", "max CPU requirement (× DGX-2)", "100.7", f.MaxCPU)
	h.record("Fig 10a", "max cores required", "4833", f.MaxCores)
	h.record("Fig 10b", "max memory requirement (× DGX-2)", "17.9", f.MaxMemory)
	h.record("Fig 10c", "max PCIe requirement (× DGX-2)", "18.0", f.MaxPCIe)
	return nil
}

func stepFig11(h *harness) error {
	t, err := experiments.Fig11()
	if err != nil {
		return err
	}
	h.print(t)
	return nil
}

func stepFig19(h *harness) error {
	f, err := experiments.Fig19()
	if err != nil {
		return err
	}
	h.print(f.Table)
	h.record("Fig 19", "avg TrainBox speedup", "44.4×", f.AvgTrainBox)
	h.record("Fig 19", "avg B+Acc speedup", "3.32×", f.AvgAcc)
	h.record("Fig 19", "clustering gain over B+Acc+P2P", "13.4×", f.ClusteringGain)
	h.recordDisplay("Fig 19", "max speedup workload", "TF-AA (84.3×)",
		fmt.Sprintf("%s (%.1f×)", f.MaxName, f.MaxTrainBox), f.MaxTrainBox)
	return nil
}

func stepFig20(h *harness) error {
	f, err := experiments.Fig20()
	if err != nil {
		return err
	}
	h.print(f.Table)
	h.record("Fig 20", "speedup at batch 8192", "≈55×", f.SpeedupAtLargest)
	return nil
}

func stepFig21(h *harness) error {
	for _, wl := range []string{"Inception-v4", "TF-SR"} {
		f, err := experiments.Fig21(wl)
		if err != nil {
			return err
		}
		h.print(f.Table)
		h.record("Fig 21", wl+" TrainBox accel-equivalents", "≈256", f.FinalByConfig["TrainBox"])
	}
	return nil
}

func stepFig22(h *harness) error {
	t, err := experiments.Fig22()
	if err != nil {
		return err
	}
	h.print(t)
	return nil
}

// feature pools the prepared tensor's first channel into coarse inputs
// (the same pooling the training CLI and tests use).
func feature(p dataprep.Prepared) ([]float64, int, error) {
	ten := p.Image
	const block = 4
	side := ten.W / block
	feat := make([]float64, side*side)
	for by := 0; by < side; by++ {
		for bx := 0; bx < side; bx++ {
			var sum float64
			for y := by * block; y < (by+1)*block; y++ {
				for x := bx * block; x < (bx+1)*block; x++ {
					sum += float64(ten.At(0, y, x))
				}
			}
			feat[by*side+bx] = sum / (block * block)
		}
	}
	return feat, p.Label, nil
}

// stepLiveThroughput drives the real data path — host executor, FPGA
// pool, and the end-to-end training driver — against
// one shared metrics registry, and records the tracked throughput
// numbers the CI regression gate compares across commits.
func stepLiveThroughput(h *harness) error {
	const (
		items       = 8
		datasetSeed = 1
		crop        = 32
	)
	reg := metrics.NewRegistry()
	store := storage.NewStore(storage.DefaultSSDSpec()).WithMetrics(reg)
	if err := dataprep.BuildImageDataset(store, items, 4, datasetSeed); err != nil {
		return err
	}
	keys := store.Keys()
	cfg := dataprep.DefaultImageConfig()
	cfg.CropW, cfg.CropH = crop, crop
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 0, datasetSeed).WithMetrics(reg)

	t := report.NewTable("Live throughput (this machine — tracked by the CI perf gate)",
		"metric", "value")

	// Host executor: fetch→prepare pipeline throughput.
	prof, err := exec.Profile(store, keys, 4*items)
	if err != nil {
		return err
	}
	h.rep.Throughput["executor_image_samples_per_sec"] = prof.SamplesPerSec
	t.AddRowf("executor_image_samples_per_sec", prof.SamplesPerSec)

	// FPGA pool: dispatch across two pooled device handlers.
	ns, err := nvme.LoadStore(store)
	if err != nil {
		return err
	}
	h1, err := fpga.NewP2PHandler(ns, fpga.NewImageEmulator(cfg), 8, fpga.WithMetrics(reg))
	if err != nil {
		return err
	}
	h2, err := fpga.NewP2PHandler(ns, fpga.NewImageEmulator(cfg), 8, fpga.WithMetrics(reg))
	if err != nil {
		return err
	}
	cluster, err := fpga.NewCluster([]*fpga.P2PHandler{h1, h2}, fpga.WithMetrics(reg))
	if err != nil {
		return err
	}
	start := time.Now()
	pooled := 0
	for epoch := 0; epoch < 3; epoch++ {
		out, err := cluster.PrepareBatch(context.Background(), keys, datasetSeed, epoch)
		if err != nil {
			return err
		}
		pooled += len(out)
	}
	poolRate := float64(pooled) / time.Since(start).Seconds()
	h.rep.Throughput["fpga_pool_samples_per_sec"] = poolRate
	t.AddRowf("fpga_pool_samples_per_sec", poolRate)

	// End-to-end training driver: steps/s and samples/s with the shared
	// registry observing the whole prepare→extract→step pipeline.
	res, err := train.Run(context.Background(), train.Config{
		Replicas: 2, Widths: []int{64, 16, 4}, Epochs: 3,
		LearningRate: 0.05, PrefetchDepth: 2, Seed: datasetSeed,
		Metrics: reg,
	}, train.WithDataset(exec, store, keys), train.WithFeature(feature))
	if err != nil {
		return err
	}
	trainRate := float64(res.SamplesProcessed) / res.Elapsed.Seconds()
	h.rep.Throughput["train_samples_per_sec"] = trainRate
	t.AddRowf("train_samples_per_sec", trainRate)

	// Serving front-end: admissions/s through the full submit path
	// (validation, quota and queue checks, tenant namespace, fair-share
	// enqueue) with an instant runner so the measurement isolates the
	// front-end, not training.
	srv, err := serve.NewServer(
		serve.WithRunner(serve.RunnerFunc(func(context.Context, string, serve.JobSpec) (serve.Outcome, error) {
			return serve.Outcome{}, nil
		})),
		serve.WithMaxRunning(runtime.NumCPU()),
		serve.WithQueueLimit(1<<20),
		serve.WithTenantQuota(1<<20),
	)
	if err != nil {
		return err
	}
	const submits = 4096
	start = time.Now()
	for i := 0; i < submits; i++ {
		if _, err := srv.Submit(serve.JobSpec{Tenant: fmt.Sprintf("t%d", i%16)}); err != nil {
			return err
		}
	}
	submitRate := submits / time.Since(start).Seconds()
	if err := srv.Close(); err != nil {
		return err
	}
	h.rep.Throughput["serve_submit_per_sec"] = submitRate
	t.AddRowf("serve_submit_per_sec", submitRate)

	h.rep.Metrics = reg.Snapshot()
	h.print(t)
	return nil
}
