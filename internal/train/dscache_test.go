package train

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/storage"
	"trainbox/internal/units"
)

// TestEchoFactorOneBitIdentical: echo factor 1 inserts the echo stage
// but must be a perfect no-op — same steps, same losses, same final
// weights as a run without the stage.
func TestEchoFactorOneBitIdentical(t *testing.T) {
	exec, store, keys := setup(t, 16)
	want, err := Run(context.Background(), baseConfig(), WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), baseConfig(), WithDataset(exec, store, keys),
		WithEchoFactor(1), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("steps = %d, want %d", len(got.Steps), len(want.Steps))
	}
	assertSameModel(t, "echo=1 vs no echo", got, want)
}

// TestWithCacheAndEchoCompose: both options together still match the
// plain run trained with the same echoed step schedule.
func TestWithCacheAndEchoCompose(t *testing.T) {
	execPlain, store, keys := setup(t, 16)
	want, err := Run(context.Background(), baseConfig(), WithDataset(execPlain, store, keys),
		WithEchoFactor(2), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	icfg := dataprep.DefaultImageConfig()
	icfg.CropW, icfg.CropH = 32, 32
	execCached := dataprep.NewExecutor(dataprep.ImagePreparer{Config: icfg}, 2, 5)
	got, err := Run(context.Background(), baseConfig(), WithDataset(execCached, store, keys),
		WithCache(dscache.New(64*units.MB)), WithEchoFactor(2), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "cache+echo vs echo", got, want)
}

// TestWithEchoFactorReplaysSteps: factor n multiplies the step
// schedule — n step-stage passes per prepared epoch — and reports it
// through the echo metrics.
func TestWithEchoFactorReplaysSteps(t *testing.T) {
	exec, store, keys := setup(t, 16)
	cfg := baseConfig()
	base, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	echoed, err := Run(context.Background(), cfg, WithDataset(exec, store, keys),
		WithEchoFactor(2), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	if len(echoed.Steps) != 2*len(base.Steps) {
		t.Fatalf("echoed steps = %d, want %d", len(echoed.Steps), 2*len(base.Steps))
	}
	if echoed.SamplesProcessed != 2*base.SamplesProcessed {
		t.Fatalf("echoed samples = %d, want %d", echoed.SamplesProcessed, 2*base.SamplesProcessed)
	}
	if n := echoed.Metrics.Counters["train.driver.echo_replays"]; n != int64(cfg.Epochs) {
		t.Fatalf("echo_replays = %d, want %d (one extra replica per epoch)", n, cfg.Epochs)
	}
	if f := echoed.Metrics.Gauges["train.driver.echo_factor"]; f != 2 {
		t.Fatalf("echo_factor gauge = %v, want 2", f)
	}
}

// TestChaosEchoTrainCancelRecyclesBuffers: cancelling a cached, echoed
// run mid-epoch — replayed batches in flight — must return every
// pooled output buffer to the executor (Gets == Puts), whichever stage
// each replica died in.
func TestChaosEchoTrainCancelRecyclesBuffers(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		icfg := dataprep.DefaultImageConfig()
		icfg.CropW, icfg.CropH = 32, 32
		exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: icfg}, 2, 5)
		store := storage.NewStore(storage.DefaultSSDSpec())
		if err := dataprep.BuildImageDataset(store, 16, 4, 5); err != nil {
			t.Fatal(err)
		}
		keys := store.Keys()
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		target := int32(4 + trial*6)
		feat := func(p dataprep.Prepared) ([]float64, int, error) {
			if calls.Add(1) == target {
				cancel() // mid-extract, with echoed replicas queued behind
			}
			return BlockFeature(p)
		}
		cfg := baseConfig()
		cfg.Epochs = 6
		_, err := Run(ctx, cfg, WithDataset(exec, store, keys),
			WithCache(dscache.New(64*units.MB)), WithEchoFactor(3), WithFeature(feat))
		if err == nil && calls.Load() >= target {
			t.Fatalf("trial %d: run succeeded despite cancellation", trial)
		}
		st := exec.OutputStats()
		if st.Gets != st.Puts {
			t.Fatalf("trial %d: pooled output buffers leaked on cancel: Gets=%d Puts=%d News=%d",
				trial, st.Gets, st.Puts, st.News)
		}
		cancel()
	}
}

// TestCacheEchoOptionValidation pins down the option error matrix.
func TestCacheEchoOptionValidation(t *testing.T) {
	exec, store, keys := setup(t, 8)
	cases := []struct {
		name string
		opts []Option
	}{
		{"nil cache", []Option{WithDataset(exec, store, keys), WithCache(nil), WithFeature(BlockFeature)}},
		{"cache without dataset", []Option{
			WithPreparer(func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
				return exec.PrepareBatchContext(ctx, store, keys, epoch)
			}, len(keys)),
			WithCache(dscache.New(units.MB)), WithFeature(BlockFeature)}},
		{"echo factor zero", []Option{WithDataset(exec, store, keys), WithEchoFactor(0), WithFeature(BlockFeature)}},
		{"echo factor twice", []Option{WithDataset(exec, store, keys), WithEchoFactor(2), WithEchoFactor(3), WithFeature(BlockFeature)}},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), baseConfig(), tc.opts...); err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if testing.Verbose() {
			fmt.Println(tc.name+":", err)
		}
	}
}
