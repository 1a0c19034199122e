package preppool

import (
	"context"
	"errors"
	"testing"

	"trainbox/internal/metrics"
	"trainbox/internal/train"
	"trainbox/internal/units"
)

// TestRunJobsOverSharedPool: two concurrent train.Run calls share one
// pool, both completing with their demand served and per-job telemetry
// separated.
func TestRunJobsOverSharedPool(t *testing.T) {
	handlers, store, imgCfg := fixture(t, 3)
	reg := metrics.NewRegistry()
	pool, err := NewPool(handlers, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	mkJob := func(name string, seed int64, required units.SamplesPerSec) *Job {
		t.Helper()
		j, err := pool.Register(spec(name, imgCfg, store, seed, required, 0))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	jobA := mkJob("alpha", 5, 16000)
	jobB := mkJob("beta", 11, 8000)

	side := imgCfg.CropW / 4 // train.BlockFeature averages 4×4 blocks
	cfgT := train.Config{
		Replicas: 2, Widths: []int{side * side, 16, 4}, Epochs: 4,
		LearningRate: 0.05, PrefetchDepth: 1, Seed: 9, Metrics: reg,
	}
	errs := make(chan error, 2)
	for _, j := range []*Job{jobA, jobB} {
		go func() {
			_, err := train.Run(context.Background(), cfgT,
				train.WithPreparer(j.Preparer(store.Keys()), store.Len()),
				train.WithFeature(train.BlockFeature))
			errs <- err
		}()
	}
	if err := errors.Join(<-errs, <-errs); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	wantSamples := int64(store.Len() * cfgT.Epochs)
	for _, name := range []string{"alpha", "beta"} {
		if got := snap.Counters["preppool.job."+name+".samples"]; got != wantSamples {
			t.Errorf("job %s samples = %d, want %d", name, got, wantSamples)
		}
	}
	if snap.Counters["preppool.job.alpha.pooled_samples"] == 0 {
		t.Error("alpha never used the pool")
	}
}
