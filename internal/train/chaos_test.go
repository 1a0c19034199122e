package train

import (
	"context"
	"testing"
	"time"

	"trainbox/internal/faults"
	"trainbox/internal/metrics"
)

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
	assertSameModel(t, "fault storm", res, oracle)

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
