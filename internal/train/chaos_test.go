package train

import (
	"context"
	"testing"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
)

// assertModelsBitIdentical compares every parameter of the two trained
// models exactly: chaos runs must reproduce the fault-free oracle
// bit-for-bit, because retries, re-dispatch, and host fallback only
// change *where* a sample is prepared, never its content or order.
func assertModelsBitIdentical(t *testing.T, got, want Result) {
	t.Helper()
	a, b := got.Model(), want.Model()
	for li := range a.Layers {
		for i := range a.Layers[li].W {
			if a.Layers[li].W[i] != b.Layers[li].W[i] {
				t.Fatalf("layer %d weight %d: %v != %v — chaos run diverged from oracle",
					li, i, a.Layers[li].W[i], b.Layers[li].W[i])
			}
		}
		for i := range a.Layers[li].B {
			if a.Layers[li].B[i] != b.Layers[li].B[i] {
				t.Fatalf("layer %d bias %d diverged from oracle", li, i)
			}
		}
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(got.Steps), len(want.Steps))
	}
	for i := range want.Steps {
		if got.Steps[i].MeanLoss != want.Steps[i].MeanLoss {
			t.Fatalf("step %d loss %v != oracle %v", i, got.Steps[i].MeanLoss, want.Steps[i].MeanLoss)
		}
	}
}

// TestTrainSurvivesStorageFaultStorm trains to completion through a
// storage layer injecting ~15% transient read errors, latency spikes,
// and occasional stalls (rescued by per-attempt deadlines), and must
// produce the oracle's model bit-for-bit with >0 retries on record.
func TestTrainSurvivesStorageFaultStorm(t *testing.T) {
	oracleExec, oracleStore, keys := setup(t, 16)
	oracle, err := Run(context.Background(), baseConfig(), WithDataset(oracleExec, oracleStore, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	stormExec, stormStore, _ := setup(t, 16)
	reg := metrics.NewRegistry()
	storm := faults.Metered(faults.Chain(
		faults.NewErrorRate(1001, 0.15, nil),
		faults.NewLatency(1002, 0.10, 200*time.Microsecond),
		faults.NewStall(1003, 0.03),
	), reg)
	policy := faults.RetryPolicy{
		MaxAttempts:    6,
		BaseBackoff:    100 * time.Microsecond,
		MaxBackoff:     2 * time.Millisecond,
		Jitter:         0.5,
		AttemptTimeout: 50 * time.Millisecond,
		Seed:           1004,
	}
	stormStore.WithMetrics(reg).WithFaults(storm).WithRetry(policy)
	cfg := baseConfig()
	cfg.Metrics = reg

	res, err := Run(context.Background(), cfg, WithDataset(stormExec, stormStore, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatalf("training did not survive the fault storm: %v", err)
	}
	assertModelsBitIdentical(t, res, oracle)

	snap := res.Metrics
	if snap.Counters["faults.injector.errors"] == 0 {
		t.Error("storm injected no errors — test is vacuous")
	}
	if snap.Counters["storage.nvme.retries"] == 0 {
		t.Error("no storage retries recorded under a 15% fault rate")
	}
	if snap.Counters["storage.nvme.retry_backoff_ns"] == 0 {
		t.Error("no backoff time recorded")
	}
}

// TestTrainSurvivesPooledDeviceDeath is the pool-path chaos run: a
// two-device prep pool where one device injects ~12% read faults and
// then dies outright mid-run. Training must complete on the surviving
// device (host fallback armed but ideally idle), match the fault-free
// oracle bit-for-bit, and the health layer must record exactly one
// ejection plus the sample re-dispatches that preceded it.
func TestTrainSurvivesPooledDeviceDeath(t *testing.T) {
	oracleExec, oracleStore, keys := setup(t, 8)
	cfg := baseConfig()
	cfg.Epochs = 6
	oracle, err := Run(context.Background(), cfg, WithDataset(oracleExec, oracleStore, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	// Pool-path run over the same dataset: setup() rebuilds it
	// deterministically, so both runs see identical stored bytes.
	_, store, _ := setup(t, 8)
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	imgCfg := dataprep.DefaultImageConfig()
	imgCfg.CropW, imgCfg.CropH = 32, 32
	reg := metrics.NewRegistry()

	// Device 0: ~12% injected read faults, then death after 10 reads —
	// the "flaky, then gone" lifecycle. Device 1 stays healthy.
	flakyThenDead := faults.Chain(
		faults.NewDeviceDeath(10),
		faults.NewErrorRate(2001, 0.12, nil),
	)
	var handlers []*fpga.P2PHandler
	for _, inj := range []faults.Injector{flakyThenDead, nil} {
		h, err := fpga.NewP2PHandler(ns, fpga.NewImageEmulator(imgCfg), 8, fpga.WithFaults(inj))
		if err != nil {
			t.Fatal(err)
		}
		handlers = append(handlers, h)
	}
	fallback := dataprep.NewExecutor(dataprep.ImagePreparer{Config: imgCfg}, 2, 0)
	cluster, err := fpga.NewCluster(handlers,
		fpga.WithHealth(fpga.HealthConfig{EjectAfter: 3, ProbationBatches: 0}),
		fpga.WithFallback(fallback, store),
		fpga.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	cfg.Metrics = reg
	const datasetSeed = 5 // matches setup()'s executor seed
	res, err := Run(context.Background(), cfg, WithPreparer(func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
		return cluster.PrepareBatch(ctx, store.Keys(), datasetSeed, epoch)
	}, len(keys)), WithFeature(BlockFeature))
	if err != nil {
		t.Fatalf("training did not survive the device death: %v", err)
	}
	assertModelsBitIdentical(t, res, oracle)

	snap := res.Metrics
	if got := snap.Counters["fpga.pool.devices_ejected"]; got != 1 {
		t.Errorf("devices_ejected = %d, want exactly 1", got)
	}
	if snap.Counters["fpga.pool.sample_retries"] == 0 {
		t.Error("no sample retries recorded around the device death")
	}
	if got := cluster.ActiveDevices(); got != 1 {
		t.Errorf("active devices after run = %d, want 1", got)
	}
	if snap.Counters["fpga.pool.devices_readmitted"] != 0 {
		t.Error("permanent ejection (ProbationBatches 0) must never readmit")
	}
}
