package experiments

import (
	"context"
	"fmt"

	"trainbox/internal/dataprep"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/preppool"
	"trainbox/internal/report"
	"trainbox/internal/storage"
	"trainbox/internal/train"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// autoscaleStudy is the elastic-jobs ablation: the same pooled training
// job runs twice — once with its required rate pinned at registration
// ("static") and once with the metrics-driven autoscaler enabled
// ("autoscaled"), reading the job's own live train.driver overlap ratio
// and moving Job.SetRequiredRate inside [Min, Max] with hysteresis.
// The table records, per epoch and mode, the overlap signal the
// controller saw, the demand it chose, and the pool leases that demand
// pulled; the headlines, "static final rate" and "autoscaled final
// rate", contrast where each configuration's demand ends up. Overlap is
// measured from live stage timings, so the autoscaled trajectory varies
// run to run — the study demonstrates the control loop, while
// internal/preppool's tests pin its arithmetic.
func autoscaleStudy(workload.Workload) (Result, error) {
	const (
		datasetSeed = 7
		epochs      = 6
		devices     = 2
		startRate   = units.SamplesPerSec(4000)
		minRate     = units.SamplesPerSec(4000)
		maxRate     = units.SamplesPerSec(32000)
	)
	t := report.NewTable("Ablation — metrics-driven required-rate autoscaling (one pooled job)",
		"mode", "epoch", "overlap", "required (samples/s)", "leases")
	h := map[string]float64{}

	run := func(autoscale bool) error {
		mode := "static"
		if autoscale {
			mode = "autoscaled"
		}
		store := storage.NewStore(storage.DefaultSSDSpec())
		if err := dataprep.BuildImageDataset(store, 8, 4, datasetSeed); err != nil {
			return err
		}
		ns, err := nvme.LoadStore(store)
		if err != nil {
			return err
		}
		imgCfg := dataprep.DefaultImageConfig()
		imgCfg.CropW, imgCfg.CropH = 32, 32
		handlers := make([]*fpga.P2PHandler, devices)
		for i := range handlers {
			if handlers[i], err = fpga.NewP2PHandler(ns, fpga.NewImageEmulator(imgCfg), 8); err != nil {
				return err
			}
		}
		reg := metrics.NewRegistry()
		pool, err := preppool.NewPool(handlers, preppool.WithMetrics(reg))
		if err != nil {
			return err
		}
		job, err := pool.Register(preppool.JobSpec{
			Name: "scaled", RequiredRate: startRate,
			Exec:        dataprep.NewExecutor(dataprep.ImagePreparer{Config: imgCfg}, 2, datasetSeed),
			Store:       store,
			DatasetSeed: datasetSeed,
		})
		if err != nil {
			return err
		}
		if autoscale {
			if err := job.EnableAutoscale(preppool.AutoscaleConfig{
				Overlap: preppool.OverlapSource(reg),
				Min:     minRate, Max: maxRate,
				Grow: 2, Shrink: 0.5,
				LowOverlap: 0.5, HighOverlap: 1.1,
			}); err != nil {
				return err
			}
		}

		// The preparer wrapper samples the post-boundary state: by the
		// time PrepareEpoch returns, the controller has ticked and the
		// rebalancer has acted on any demand change.
		keys := store.Keys()
		overlap := reg.Gauge("train.driver.prep_step_overlap")
		prep := func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
			out, err := job.PrepareEpoch(ctx, keys, epoch)
			if err != nil {
				return nil, err
			}
			t.AddRowf(mode, epoch, fmt.Sprintf("%.2f", overlap.Value()),
				float64(pool.Stats()[0].RequiredRate), job.Leases())
			return out, nil
		}
		cfgT := train.Config{
			Replicas: 2, Widths: []int{64, 16, 4}, Epochs: epochs,
			LearningRate: 0.05, PrefetchDepth: 1, Seed: 9, Metrics: reg,
		}
		if _, err := train.Run(context.Background(), cfgT,
			train.WithPreparer(prep, len(keys)),
			train.WithFeature(train.BlockFeature)); err != nil {
			return err
		}
		h[mode+" final rate"] = float64(pool.Stats()[0].RequiredRate)
		return job.Close()
	}

	if err := run(false); err != nil {
		return Result{}, err
	}
	if err := run(true); err != nil {
		return Result{}, err
	}
	return Result{Tables: []*report.Table{t}, Headlines: h}, nil
}
