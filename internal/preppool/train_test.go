package preppool

import (
	"context"
	"errors"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/storage"
	"trainbox/internal/train"
	"trainbox/internal/units"
)

// trainFixture builds a 32×32-crop dataset store and pool devices.
func trainFixture(t *testing.T, devices int) ([]*fpga.P2PHandler, *storage.Store, dataprep.ImageConfig) {
	t.Helper()
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, 8, 4, 5); err != nil {
		t.Fatal(err)
	}
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataprep.DefaultImageConfig()
	cfg.CropW, cfg.CropH = 32, 32
	handlers := make([]*fpga.P2PHandler, devices)
	for i := range handlers {
		h, err := fpga.NewP2PHandler(ns, fpga.NewImageEmulator(cfg), 8)
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = h
	}
	return handlers, store, cfg
}

// TestPreemptSuspendResumeTrainingOracleIdentical is the elastic-jobs
// acceptance run, parked the way serve parks a run: a low-priority
// training job holds the whole pool; a high-priority job arrives, the
// victim parks at its next epoch boundary (train.Suspender checkpoint)
// and its pool job closes, returning its leases; the vip acquires them
// at its first boundary and trains to completion — after which the
// victim re-registers, resumes from its checkpoint and finishes
// bit-identical to an uninterrupted host-path oracle.
func TestPreemptSuspendResumeTrainingOracleIdentical(t *testing.T) {
	const victimSeed, vipSeed = 5, 5
	cfgT := train.Config{
		Replicas: 2, Widths: []int{64, 16, 4}, Epochs: 6,
		LearningRate: 0.05, Momentum: 0.9, PrefetchDepth: 1, Seed: 9,
	}

	// Oracles: pure host path, uninterrupted.
	_, oracleStore, imgCfg := trainFixture(t, 0)
	mkOracle := func(seed int64) train.Result {
		t.Helper()
		exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: imgCfg}, 2, seed)
		res, err := train.Run(context.Background(), cfgT,
			train.WithDataset(exec, oracleStore, oracleStore.Keys()),
			train.WithFeature(train.BlockFeature))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	victimOracle := mkOracle(victimSeed)

	handlers, store, imgCfg := trainFixture(t, 2)
	pool, err := NewPool(handlers)
	if err != nil {
		t.Fatal(err)
	}
	mkSpec := func(name string, seed int64, prio int) JobSpec {
		s := spec(name, imgCfg, store, seed, 16000, 0)
		s.Priority = prio
		return s
	}
	victim, err := pool.Register(mkSpec("victim", victimSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()

	// Victim leg 1: trains with a Suspender; once epoch 2 is being
	// prepared, the vip registers and the victim is asked to park.
	susp := train.NewSuspender()
	var vip *Job
	victimPrep := func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
		if epoch == 2 && vip == nil {
			var err error
			if vip, err = pool.Register(mkSpec("vip", vipSeed, 1)); err != nil {
				return nil, err
			}
			susp.Suspend()
		}
		return victim.PrepareEpoch(ctx, keys, epoch)
	}
	var cp train.Checkpoint
	ok := false
	_, err = train.Run(context.Background(), cfgT,
		train.WithPreparer(victimPrep, len(keys)),
		train.WithFeature(train.BlockFeature),
		train.WithSuspender(susp),
		train.WithCheckpointSink(func(c train.Checkpoint) { cp, ok = c, true }))
	if !errors.Is(err, train.ErrSuspended) {
		t.Fatalf("victim returned %v, want ErrSuspended", err)
	}
	if !ok {
		t.Fatal("victim parked without a checkpoint")
	}
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.FreeDevices() != 2 {
		t.Fatalf("free = %d after the victim parked, want 2 (leases revoked)", pool.FreeDevices())
	}

	// Vip leg: its first epoch boundary acquires the revoked leases and
	// it trains to completion, itself oracle-identical.
	leasesAfterFirstEpoch := -1
	vipPrep := func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
		out, err := vip.PrepareEpoch(ctx, keys, epoch)
		if epoch == 0 && err == nil {
			leasesAfterFirstEpoch = leases(vip)
		}
		return out, err
	}
	vipRes, err := train.Run(context.Background(), cfgT,
		train.WithPreparer(vipPrep, len(keys)),
		train.WithFeature(train.BlockFeature))
	if err != nil {
		t.Fatalf("vip training failed: %v", err)
	}
	if leasesAfterFirstEpoch != 2 {
		t.Errorf("vip held %d leases at its first epoch boundary, want 2 (revoked grants acquired within one boundary)", leasesAfterFirstEpoch)
	}
	vipOracle := mkOracle(vipSeed)
	assertNetworksBitIdentical(t, vipRes, vipOracle)
	if err := vip.Close(); err != nil {
		t.Fatal(err)
	}

	// Victim leg 2: re-register the pool job and resume the training run
	// from the checkpoint; the finished model must match the
	// uninterrupted oracle bit for bit.
	if victim, err = pool.Register(mkSpec("victim", victimSeed, 0)); err != nil {
		t.Fatal(err)
	}
	res, err := train.Run(context.Background(), cfgT,
		train.WithPreparer(victim.Preparer(keys), len(keys)),
		train.WithFeature(train.BlockFeature),
		train.WithRestore(cp))
	if err != nil {
		t.Fatalf("victim resume failed: %v", err)
	}
	assertNetworksBitIdentical(t, res, victimOracle)
	if leases(victim) != 2 {
		t.Errorf("victim leases = %d after resuming into the freed pool, want 2", leases(victim))
	}
}

// assertNetworksBitIdentical compares only the final weights (restored
// runs replay fewer steps, so step stats are not comparable).
func assertNetworksBitIdentical(t *testing.T, got, want train.Result) {
	t.Helper()
	a, b := got.Model(), want.Model()
	for li := range a.Layers {
		for i := range a.Layers[li].W {
			if a.Layers[li].W[i] != b.Layers[li].W[i] {
				t.Fatalf("layer %d weight %d diverged from oracle", li, i)
			}
		}
		for i := range a.Layers[li].B {
			if a.Layers[li].B[i] != b.Layers[li].B[i] {
				t.Fatalf("layer %d bias %d diverged from oracle", li, i)
			}
		}
	}
}

// TestRunJobsOverSharedPool: two concurrent train.Run calls share one
// pool, both completing with their demand served and per-job telemetry
// separated.
func TestRunJobsOverSharedPool(t *testing.T) {
	handlers, store, imgCfg := trainFixture(t, 3)
	reg := metrics.NewRegistry()
	pool, err := NewPool(handlers, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	mkJob := func(name string, seed int64, required float64) *Job {
		t.Helper()
		j, err := pool.Register(JobSpec{
			Name: name, Type: 0, RequiredRate: units.SamplesPerSec(required),
			Exec:        dataprep.NewExecutor(dataprep.ImagePreparer{Config: imgCfg}, 2, seed),
			Store:       store,
			DatasetSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	jobA := mkJob("alpha", 5, 16000)
	jobB := mkJob("beta", 11, 8000)

	cfgT := train.Config{
		Replicas: 2, Widths: []int{64, 16, 4}, Epochs: 4,
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
