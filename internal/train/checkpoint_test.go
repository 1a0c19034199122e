package train

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/invariant"
	"trainbox/internal/metrics"
)

// chaosErrorRate returns the storm's injected error rate: def by
// default, overridden by TRAINBOX_CHAOS_RATE in (0,1) — the CI chaos
// job's knob for elevated fault pressure.
func chaosErrorRate(def float64) float64 {
	if v := os.Getenv("TRAINBOX_CHAOS_RATE"); v != "" {
		if r, err := strconv.ParseFloat(v, 64); err == nil && r > 0 && r < 1 {
			return r
		}
	}
	return def
}

// TestCheckpointRestoreBitIdentical is the determinism contract: a run
// restored from the checkpoint of epoch k must finish with weights
// bit-for-bit identical to the uninterrupted oracle — from every k.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	exec, store, keys := setup(t, 16)
	cfg := baseConfig()
	cfg.Epochs = 5
	cfg.Momentum = 0.9 // exercise optimizer-state capture too

	oracle, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	var cps []Checkpoint
	full, err := Run(context.Background(), cfg,
		WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithCheckpointSink(func(cp Checkpoint) { cps = append(cps, cp) }))
	if err != nil {
		t.Fatal(err)
	}
	assertModelsBitIdentical(t, full, oracle)
	if len(cps) != cfg.Epochs-1 {
		t.Fatalf("captured %d checkpoints, want %d (final epoch not checkpointed)", len(cps), cfg.Epochs-1)
	}

	for _, cp := range cps {
		res, err := Run(context.Background(), cfg,
			WithDataset(exec, store, keys), WithFeature(BlockFeature),
			WithRestore(cp))
		if err != nil {
			t.Fatalf("restore from epoch %d: %v", cp.Epoch, err)
		}
		// The restored run only replays epochs cp.Epoch+1…: same final
		// weights, fewer steps — compare weights only.
		a, b := res.Model(), oracle.Model()
		for li := range a.Layers {
			for i := range a.Layers[li].W {
				if a.Layers[li].W[i] != b.Layers[li].W[i] {
					t.Fatalf("restore from epoch %d: layer %d weight %d diverged from oracle", cp.Epoch, li, i)
				}
			}
			for i := range a.Layers[li].B {
				if a.Layers[li].B[i] != b.Layers[li].B[i] {
					t.Fatalf("restore from epoch %d: layer %d bias %d diverged from oracle", cp.Epoch, li, i)
				}
			}
		}
		if want := (cfg.Epochs - 1 - cp.Epoch) * 16; res.SamplesProcessed != want {
			t.Errorf("restore from epoch %d processed %d samples, want %d", cp.Epoch, res.SamplesProcessed, want)
		}
	}
}

// TestCheckpointValidation covers the option and restore error paths.
func TestCheckpointValidation(t *testing.T) {
	exec, store, keys := setup(t, 8)
	cfg := baseConfig()

	// Nil sink, nil suspender.
	if _, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithCheckpointSink(nil)); err == nil {
		t.Error("nil sink accepted")
	}
	if _, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithSuspender(nil)); err == nil {
		t.Error("nil suspender accepted")
	}

	// Grab one real checkpoint to mutate.
	var cp Checkpoint
	if _, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithCheckpointSink(func(c Checkpoint) { cp = c })); err != nil {
		t.Fatal(err)
	}

	bads := map[string]func(*Checkpoint, *Config){
		"seed mismatch":      func(c *Checkpoint, _ *Config) { c.Seed++ },
		"width mismatch":     func(c *Checkpoint, _ *Config) { c.Widths[1]++ },
		"replica mismatch":   func(c *Checkpoint, cfg *Config) { cfg.Replicas++ },
		"epoch out of range": func(c *Checkpoint, _ *Config) { c.Epoch = 99 },
		"nothing left":       func(c *Checkpoint, cfg *Config) { c.Epoch = cfg.Epochs - 1 },
	}
	for name, mutate := range bads {
		bad := cp.Clone()
		badCfg := cfg
		mutate(&bad, &badCfg)
		if _, err := Run(context.Background(), badCfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
			WithRestore(bad)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Two restores is a config error.
	if _, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithRestore(cp), WithRestore(cp)); err == nil {
		t.Error("double restore accepted")
	}
}

// TestSuspendParksAtEpochBoundary: a pending Suspend must park the run
// at the first epoch boundary with an ErrSuspended-classified error and
// hand the checkpoint sink its state; resuming from it matches the
// oracle.
func TestSuspendParksAtEpochBoundary(t *testing.T) {
	exec, store, keys := setup(t, 16)
	invariant.NoLeak(t)
	cfg := baseConfig()
	cfg.Epochs = 4

	oracle, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	s := NewSuspender()
	s.Suspend() // already pending: parks after epoch 0
	s.Suspend() // idempotent
	var cp Checkpoint
	ok := false
	_, err = Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithSuspender(s), WithCheckpointSink(func(c Checkpoint) { cp, ok = c, true }))
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("suspended run returned %v, want ErrSuspended", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Error("suspension must not classify as cancellation")
	}
	if !ok {
		t.Fatal("the parked run delivered no checkpoint")
	}
	if cp.Epoch != 0 {
		t.Errorf("parked after epoch %d, want 0 (first boundary)", cp.Epoch)
	}

	res, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithRestore(cp))
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Model(), oracle.Model()
	for li := range a.Layers {
		for i := range a.Layers[li].W {
			if a.Layers[li].W[i] != b.Layers[li].W[i] {
				t.Fatalf("resumed run diverged from oracle at layer %d weight %d", li, i)
			}
		}
	}
}

// TestSuspendAfterFinalEpochIsIgnored: a Suspend that can only be
// honoured after the last epoch lets the run finish normally.
func TestSuspendAfterFinalEpochIsIgnored(t *testing.T) {
	exec, store, keys := setup(t, 8)
	cfg := baseConfig()
	cfg.Epochs = 1 // only boundary is the final one

	s := NewSuspender()
	s.Suspend()
	res, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithSuspender(s))
	if errors.Is(err, ErrSuspended) {
		t.Fatalf("single-epoch run parked after its final epoch: %v", err)
	}
	if err != nil {
		t.Fatalf("single-epoch run with pending suspend failed: %v", err)
	}
	if res.SamplesProcessed != 8 {
		t.Errorf("samples = %d, want 8", res.SamplesProcessed)
	}
}

// TestSuspendHandsSinkEachEpochOnce: a run parked after epoch 1 of 4
// has handed its sink the checkpoints of epochs 0 and 1, each once — the
// park reuses the boundary's checkpoint instead of capturing it again.
func TestSuspendHandsSinkEachEpochOnce(t *testing.T) {
	exec, store, keys := setup(t, 8)
	cfg := baseConfig()
	cfg.Epochs = 4

	s := NewSuspender()
	var epochs []int
	_, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithSuspender(s), WithCheckpointSink(func(cp Checkpoint) {
			epochs = append(epochs, cp.Epoch)
			if cp.Epoch == 1 {
				s.Suspend() // seen at this same boundary: parks after epoch 1
			}
		}))
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("run returned %v, want ErrSuspended", err)
	}
	if fmt.Sprint(epochs) != "[0 1]" {
		t.Errorf("sink received epochs %v, want [0 1]", epochs)
	}
}

// TestJobKillResumeChaos is the acceptance chaos run: kill a running
// job mid-epoch (hard context cancellation while the step stage is
// busy), restore from its last sink'd checkpoint, and require the final
// weights bit-for-bit identical to an uninterrupted fault-free oracle —
// with no goroutine leaks.
func TestJobKillResumeChaos(t *testing.T) {
	exec, store, keys := setup(t, 16)
	invariant.NoLeak(t)
	cfg := baseConfig()
	cfg.Epochs = 6
	cfg.Momentum = 0.9

	oracle, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	// The doomed run checkpoints every epoch; the kill fires from the
	// prepare path once epoch 3 is being prepared, so the step stage is
	// mid-schedule when the context dies.
	var cps []Checkpoint
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	killer := func(kctx context.Context, epoch int) ([]dataprep.Prepared, error) {
		if epoch >= 3 {
			kill()
			<-kctx.Done()
			return nil, kctx.Err()
		}
		return exec.PrepareBatchContext(kctx, store, keys, epoch)
	}
	_, err = Run(ctx, cfg,
		WithPreparer(killer, len(keys)), WithFeature(BlockFeature),
		WithCheckpointSink(func(cp Checkpoint) { cps = append(cps, cp) }))
	if err == nil {
		t.Fatal("killed run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints survived the kill")
	}

	last := cps[len(cps)-1]
	res, err := Run(context.Background(), cfg,
		WithDataset(exec, store, keys), WithFeature(BlockFeature),
		WithRestore(last))
	if err != nil {
		t.Fatalf("restore after kill: %v", err)
	}
	a, b := res.Model(), oracle.Model()
	for li := range a.Layers {
		for i := range a.Layers[li].W {
			if a.Layers[li].W[i] != b.Layers[li].W[i] {
				t.Fatalf("restored run diverged from fault-free oracle at layer %d weight %d", li, i)
			}
		}
		for i := range a.Layers[li].B {
			if a.Layers[li].B[i] != b.Layers[li].B[i] {
				t.Fatalf("restored run diverged from fault-free oracle at layer %d bias %d", li, i)
			}
		}
	}
}

// TestJobKillResumeUnderFaultStorm composes the kill/resume path with
// the PR-3 storage fault storm: the resumed leg itself runs against a
// faulty store with retries and must still reproduce the fault-free
// oracle bit-for-bit — the recovery path is as robust as steady state.
func TestJobKillResumeUnderFaultStorm(t *testing.T) {
	exec, store, keys := setup(t, 16)
	cfg := baseConfig()
	cfg.Epochs = 5

	oracle, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	// Doomed leg: dies on its own preparer error (a crash, not a
	// cancellation) after checkpointing epochs 0 and 1.
	var cps []Checkpoint
	boom := errors.New("simulated job crash")
	crasher := func(kctx context.Context, epoch int) ([]dataprep.Prepared, error) {
		if epoch >= 2 {
			return nil, boom
		}
		return exec.PrepareBatchContext(kctx, store, keys, epoch)
	}
	_, err = Run(context.Background(), cfg,
		WithPreparer(crasher, len(keys)), WithFeature(BlockFeature),
		WithCheckpointSink(func(cp Checkpoint) { cps = append(cps, cp) }))
	if !errors.Is(err, boom) {
		t.Fatalf("crashed run returned %v, want the crash error", err)
	}

	// Resumed leg: fresh dataset build with a fault-injecting store. The
	// CI chaos job elevates the error rate via TRAINBOX_CHAOS_RATE; the
	// retry budget widens with it so the run's survival stays a
	// determinism check, not a retry-budget lottery.
	rate := chaosErrorRate(0.15)
	attempts := 6
	if rate > 0.2 {
		attempts = 10
	}
	stormExec, stormStore, _ := setup(t, 16)
	reg := metrics.NewRegistry()
	storm := faults.Metered(faults.Chain(
		faults.NewErrorRate(3001, rate, nil),
		faults.NewLatency(3002, 0.10, 200*time.Microsecond),
	), reg)
	stormStore.WithMetrics(reg).WithFaults(storm).WithRetry(faults.RetryPolicy{
		MaxAttempts: attempts, BaseBackoff: 100 * time.Microsecond, MaxBackoff: 2 * time.Millisecond,
		Jitter: 0.5, AttemptTimeout: 50 * time.Millisecond, Seed: 3003,
	})
	stormCfg := cfg
	stormCfg.Metrics = reg

	res, err := Run(context.Background(), stormCfg,
		WithDataset(stormExec, stormStore, keys), WithFeature(BlockFeature),
		WithRestore(cps[len(cps)-1]))
	if err != nil {
		t.Fatalf("resume under fault storm: %v", err)
	}
	assertModelsBitIdentical(t, Result{Replicas: res.Replicas, Steps: oracle.Steps}, oracle)
	if res.Metrics.Counters["faults.injector.errors"] == 0 {
		t.Error("storm injected no errors — test is vacuous")
	}
}
