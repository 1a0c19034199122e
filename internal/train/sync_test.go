package train

import (
	"context"
	"errors"
	"strings"
	"testing"

	"trainbox/internal/collective"
	"trainbox/internal/metrics"
)

// TestWithSyncRingMatchesDefault trains the same job once with the
// default (no WithSync — a ring the driver builds itself) and once with
// a caller-owned ring through WithSync, the path the benchmark's traced
// reducer takes: the two trained models must be bit-for-bit the same.
func TestWithSyncRingMatchesDefault(t *testing.T) {
	exec, store, keys := setup(t, 16)
	oracle, err := Run(context.Background(), baseConfig(), WithDataset(exec, store, keys), WithFeature(stripeFeature))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := collective.NewRing()
	if err != nil {
		t.Fatal(err)
	}
	exec2, store2, keys2 := setup(t, 16)
	res, err := Run(context.Background(), baseConfig(),
		WithDataset(exec2, store2, keys2), WithFeature(stripeFeature), WithSync(ring))
	if err != nil {
		t.Fatal(err)
	}
	assertModelsBitIdentical(t, res, oracle)
}

// TestSyncMetricsEmitted pins the metric names: the driver's
// sync_rounds counter and the ring's collective.ring.* series, for the
// default ring bound to the run registry and for a caller-owned ring
// bound to its own.
func TestSyncMetricsEmitted(t *testing.T) {
	exec, store, keys := setup(t, 16)
	cfg := baseConfig()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(stripeFeature))
	if err != nil {
		t.Fatal(err)
	}
	rounds := reg.Counter("train.driver.sync_rounds").Value()
	if rounds <= 0 {
		t.Error("train.driver.sync_rounds not incremented")
	}
	if got := reg.Counter("collective.ring.bytes_moved").Value(); got <= 0 {
		t.Error("default ring did not meter collective.ring.bytes_moved")
	}
	if got := reg.Counter("collective.ring.rounds").Value(); got != rounds*2*(4-1) {
		t.Errorf("collective.ring.rounds = %d, want %d (2·(n−1) per sync)", got, rounds*2*(4-1))
	}
	if _, ok := res.Metrics.Counters["train.driver.sync_rounds"]; !ok {
		t.Error("sync_rounds missing from the result snapshot")
	}

	// A caller-owned ring carries its own registry binding.
	reg2 := metrics.NewRegistry()
	ring, err := collective.NewRing(collective.WithMetrics(reg2))
	if err != nil {
		t.Fatal(err)
	}
	exec2, store2, keys2 := setup(t, 16)
	if _, err := Run(context.Background(), baseConfig(),
		WithDataset(exec2, store2, keys2), WithFeature(stripeFeature), WithSync(ring)); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("collective.ring.bytes_moved").Value(); got <= 0 {
		t.Error("caller-owned ring did not meter collective.ring.bytes_moved")
	}
}

func TestWithSyncValidation(t *testing.T) {
	exec, store, keys := setup(t, 16)
	if _, err := Run(context.Background(), baseConfig(),
		WithDataset(exec, store, keys), WithFeature(stripeFeature), WithSync(nil)); err == nil {
		t.Error("nil reducer accepted")
	}
	ring, err := collective.NewRing()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), baseConfig(),
		WithDataset(exec, store, keys), WithFeature(stripeFeature), WithSync(ring), WithSync(ring))
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("double WithSync not rejected: %v", err)
	}
}

// failingReducer fails every Reduce after the first ok ones.
type failingReducer struct {
	collective.Reducer
	ok int
}

var errLinkDown = errors.New("link down")

func (f *failingReducer) Reduce(ctx context.Context, grads [][]float64) error {
	if f.ok == 0 {
		return errLinkDown
	}
	f.ok--
	return f.Reducer.Reduce(ctx, grads)
}

// TestSyncReduceErrorFailsRun: when a caller-owned reducer fails
// mid-run, the run must surface that error instead of training on
// unsynchronized weights.
func TestSyncReduceErrorFailsRun(t *testing.T) {
	ring, err := collective.NewRing()
	if err != nil {
		t.Fatal(err)
	}
	exec, store, keys := setup(t, 16)
	_, err = Run(context.Background(), baseConfig(),
		WithDataset(exec, store, keys), WithFeature(stripeFeature), WithSync(&failingReducer{Reducer: ring, ok: 2}))
	if !errors.Is(err, errLinkDown) {
		t.Fatalf("run with a failing reducer = %v, want %v", err, errLinkDown)
	}
}
