package train

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/invariant"
	"trainbox/internal/metrics"
	"trainbox/internal/nn"
	"trainbox/internal/storage"
)

func setup(t *testing.T, items int) (*dataprep.Executor, *storage.Store, []string) {
	t.Helper()
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, items, 4, 5); err != nil {
		t.Fatal(err)
	}
	cfg := dataprep.DefaultImageConfig()
	cfg.CropW, cfg.CropH = 32, 32
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 5)
	return exec, store, store.Keys()
}

func baseConfig() Config {
	return Config{
		Replicas: 4, Widths: []int{64, 16, 4}, Epochs: 3,
		LearningRate: 0.05, PrefetchDepth: 2, Seed: 9,
	}
}

func TestRunKeepsReplicasSynchronized(t *testing.T) {
	exec, store, keys := setup(t, 16)
	res, err := Run(context.Background(), baseConfig(), WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replicas) != 4 {
		t.Fatalf("replicas = %d", len(res.Replicas))
	}
	// All replicas applied identical averaged gradients; divergence must
	// be at floating-point noise level.
	if d := MaxReplicaDivergence(res.Replicas); d > 1e-12 {
		t.Errorf("replica divergence = %g, want ≈0", d)
	}
	if res.SamplesProcessed != 16*3 {
		t.Errorf("samples processed = %d, want 48", res.SamplesProcessed)
	}
	if len(res.Steps) == 0 || res.Elapsed <= 0 {
		t.Error("missing step stats")
	}
}

func TestRunReducesLoss(t *testing.T) {
	exec, store, keys := setup(t, 32)
	cfg := baseConfig()
	cfg.Epochs = 8
	cfg.LearningRate = 0.1
	res, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Steps[0].MeanLoss
	last := res.FinalLoss()
	if last >= first {
		t.Errorf("loss did not decrease: %v → %v", first, last)
	}
}

// TestDataParallelMatchesSingleWorkerOracle: R replicas with shard-size
// minibatches must produce (numerically) the same model as one replica
// processing the same global minibatch, because gradients are averaged
// over the global batch either way.
func TestDataParallelMatchesSingleWorkerOracle(t *testing.T) {
	exec, store, keys := setup(t, 16)

	multi := baseConfig()
	multi.Epochs = 2
	resMulti, err := Run(context.Background(), multi, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	single := multi
	single.Replicas = 1
	resSingle, err := Run(context.Background(), single, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	a, b := resMulti.Model(), resSingle.Model()
	for li := range a.Layers {
		for i := range a.Layers[li].W {
			d := math.Abs(a.Layers[li].W[i] - b.Layers[li].W[i])
			if d > 1e-9 {
				t.Fatalf("layer %d weight %d differs by %g between 4-replica and oracle", li, i, d)
			}
		}
	}
}

func TestRunMinibatchSplitting(t *testing.T) {
	exec, store, keys := setup(t, 16)
	cfg := baseConfig()
	cfg.Replicas = 2
	cfg.MinibatchPerReplica = 2 // shard of 8 → 4 steps per epoch
	res, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * cfg.Epochs; len(res.Steps) != want {
		t.Errorf("steps = %d, want %d", len(res.Steps), want)
	}
	if d := MaxReplicaDivergence(res.Replicas); d > 1e-12 {
		t.Errorf("divergence = %g", d)
	}
}

func TestRunValidation(t *testing.T) {
	exec, store, keys := setup(t, 8)
	bads := []func(*Config){
		func(c *Config) { c.Replicas = 0 },
		func(c *Config) { c.Widths = []int{3} },
		func(c *Config) { c.Widths = []int{64, -1, 4} },
		func(c *Config) { c.Widths = []int{64, 16, 0} },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.PrefetchDepth = 0 },
	}
	for i, mutate := range bads {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Run(context.Background(), baseConfig(), WithDataset(exec, store, keys), WithFeature(nil)); err == nil {
		t.Error("nil feature accepted")
	}
	cfg := baseConfig()
	cfg.Replicas = 100
	if _, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature)); err == nil {
		t.Error("more replicas than keys accepted")
	}
}

// TestRunStorageErrorCancelsPipeline: a storage read failing mid-run
// (a key that vanishes from the shard) must cancel the whole
// prepare→extract→step pipeline, surface the storage error from Run,
// and leak no goroutines.
func TestRunStorageErrorCancelsPipeline(t *testing.T) {
	exec, store, keys := setup(t, 16)
	invariant.NoLeak(t)
	cfg := baseConfig()
	cfg.Epochs = 50
	badKeys := append(append([]string(nil), keys...), "missing")
	_, err := Run(context.Background(), cfg, WithDataset(exec, store, badKeys), WithFeature(BlockFeature))
	if err == nil {
		t.Fatal("run with missing key succeeded")
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Errorf("error does not name the failing sample: %v", err)
	}
}

// TestRunFeatureErrorCancelsPipeline: the extract stage failing must
// likewise abort the run cleanly.
func TestRunFeatureErrorCancelsPipeline(t *testing.T) {
	exec, store, keys := setup(t, 8)
	invariant.NoLeak(t)
	cfg := baseConfig()
	cfg.Epochs = 40
	calls := 0
	badFeature := func(p dataprep.Prepared) ([]float64, int, error) {
		calls++
		if calls > 12 {
			return nil, 0, errors.New("feature failed")
		}
		return BlockFeature(p)
	}
	if _, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(badFeature)); err == nil {
		t.Fatal("run with failing feature succeeded")
	}
}

func TestMaxReplicaDivergenceDetectsDrift(t *testing.T) {
	exec, store, keys := setup(t, 8)
	res, err := Run(context.Background(), baseConfig(), WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	res.Replicas[1].Layers[0].W[0] += 0.5
	if d := MaxReplicaDivergence(res.Replicas); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("divergence = %v, want 0.5", d)
	}
	if MaxReplicaDivergence(nil) != 0 {
		t.Error("empty divergence should be 0")
	}
}

func TestResultAccessors(t *testing.T) {
	var r Result
	if r.FinalLoss() != 0 {
		t.Error("empty FinalLoss should be 0")
	}
	r.Replicas = []*nn.Network{nil}
	if r.Model() != nil {
		t.Error("Model should return replica 0")
	}
}

func TestRunWithMomentumKeepsReplicasSynchronized(t *testing.T) {
	exec, store, keys := setup(t, 16)
	cfg := baseConfig()
	cfg.Momentum = 0.9
	cfg.Epochs = 4
	res, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	// Momentum state is per replica; identical averaged gradients must
	// keep the velocities — and therefore the weights — in lockstep.
	if d := MaxReplicaDivergence(res.Replicas); d > 1e-12 {
		t.Errorf("momentum replicas diverged by %g", d)
	}
}

func TestRunRejectsBadOptimizer(t *testing.T) {
	exec, store, keys := setup(t, 8)
	cfg := baseConfig()
	cfg.Momentum = 1.5
	if _, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature)); err == nil {
		t.Error("momentum ≥ 1 accepted")
	}
}

// TestRunMetricsSnapshot: the driver must expose a full telemetry
// snapshot — its own step/sync/overlap series, the prepare→extract→step
// pipeline's stage series, and (when the executor and store share the
// registry) the dataprep and storage series — the acceptance surface of
// the unified metrics layer.
func TestRunMetricsSnapshot(t *testing.T) {
	exec, store, keys := setup(t, 16)
	reg := metrics.NewRegistry()
	exec.WithMetrics(reg)
	store.WithMetrics(reg)
	cfg := baseConfig()
	cfg.Metrics = reg

	res, err := Run(context.Background(), cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}

	snap := res.Metrics
	steps := snap.Histograms["train.driver.step_ns"]
	if int(steps.Count) != len(res.Steps) {
		t.Errorf("train.step_ns count = %d, want %d", steps.Count, len(res.Steps))
	}
	if steps.Count > 0 && (steps.P50 <= 0 || steps.P99 < steps.P50) {
		t.Errorf("step latency quantiles implausible: %+v", steps)
	}
	if got := snap.Counters["train.driver.samples"]; got != int64(res.SamplesProcessed) {
		t.Errorf("train.samples = %d, want %d", got, res.SamplesProcessed)
	}
	if snap.Histograms["train.driver.sync_ns"].Count != steps.Count {
		t.Errorf("train.sync_ns count = %d, want %d", snap.Histograms["train.driver.sync_ns"].Count, steps.Count)
	}
	// The overlap gauge is the pipeline's own stage measurement, not a
	// second timing of the same stages.
	overlap, ok := snap.Gauges["train.driver.prep_step_overlap"]
	if !ok {
		t.Error("train.prep_step_overlap gauge missing")
	}
	prepBusy := snap.Histograms["pipeline.train.prepare.busy_ns"].Sum
	stepBusy := snap.Histograms["pipeline.train.step.busy_ns"].Sum
	if stepBusy <= 0 {
		t.Fatalf("pipeline.train.step.busy_ns sum = %v, want > 0", stepBusy)
	}
	if want := prepBusy / stepBusy; math.Abs(overlap-want) > 1e-12*want {
		t.Errorf("train.prep_step_overlap = %v, want prepare/step busy %v", overlap, want)
	}

	// Pipeline stage series from the driver's own staged pipeline.
	for _, name := range []string{
		"pipeline.train.prepare.items",
		"pipeline.train.extract.items",
		"pipeline.train.step.items",
	} {
		if got := snap.Counters[name]; got != int64(cfg.Epochs) {
			t.Errorf("%s = %d, want %d", name, got, cfg.Epochs)
		}
	}

	// Shared-registry series from the executor and the store.
	if got := snap.Counters["dataprep.executor.samples_prepared"]; got != int64(cfg.Epochs*len(keys)) {
		t.Errorf("dataprep.executor.samples_prepared = %d, want %d", got, cfg.Epochs*len(keys))
	}
	if snap.Counters["storage.nvme.bytes_read"] <= 0 {
		t.Error("storage bytes_read not recorded")
	}
}

// TestRunWithoutMetricsStillSnapshots: with no registry configured the
// driver uses a private one, so Result.Metrics is always observable.
func TestRunWithoutMetricsStillSnapshots(t *testing.T) {
	exec, store, keys := setup(t, 8)
	res, err := Run(context.Background(), baseConfig(), WithDataset(exec, store, keys), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Histograms["train.driver.step_ns"].Count == 0 {
		t.Error("private registry snapshot empty")
	}
	// The unmetered executor must not have leaked series into it.
	if _, ok := res.Metrics.Counters["dataprep.executor.samples_prepared"]; ok {
		t.Error("executor metrics appeared without WithMetrics")
	}
}

func TestRunOptionValidation(t *testing.T) {
	exec, store, keys := setup(t, 8)
	if _, err := Run(context.Background(), baseConfig(), WithFeature(BlockFeature)); err == nil {
		t.Error("run with no data source accepted")
	}
	if _, err := Run(context.Background(), baseConfig(),
		WithDataset(exec, store, keys)); err == nil {
		t.Error("run with no feature accepted")
	}
	if _, err := Run(context.Background(), baseConfig(),
		WithDataset(exec, store, keys),
		WithPreparer(func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) { return nil, nil }, 8),
		WithFeature(BlockFeature)); err == nil {
		t.Error("two data sources accepted")
	}
	if _, err := Run(context.Background(), baseConfig(),
		WithPreparer(nil, 8), WithFeature(BlockFeature)); err == nil {
		t.Error("nil preparer accepted")
	}
	if _, err := Run(context.Background(), baseConfig(),
		WithDataset(nil, nil, keys), WithFeature(BlockFeature)); err == nil {
		t.Error("nil dataset accepted")
	}
}

// TestRunHonoursContext: a pre-cancelled context must abort the run.
func TestRunHonoursContext(t *testing.T) {
	exec, store, keys := setup(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := baseConfig()
	cfg.Epochs = 50
	if _, err := Run(ctx, cfg, WithDataset(exec, store, keys), WithFeature(BlockFeature)); err == nil {
		t.Error("cancelled run succeeded")
	}
}
