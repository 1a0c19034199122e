// Package train is the functional end-to-end training driver of the
// reproduction: it wires every substrate together the way Figure 1
// composes them — data preparation (internal/dataprep), model
// computation on data-parallel replicas (internal/nn, one goroutine per
// "accelerator"), and model synchronization (internal/collective's real
// ring all-reduce) — and runs synchronous SGD.
//
// The driver is one staged pipeline on internal/pipeline: a
// prepare stage (next-batch prefetching, queue depth = PrefetchDepth)
// feeds an extract stage feeding the serial step stage that runs
// replica compute (pipeline.ForEach fan-out) and the ring all-reduce.
// The first failure anywhere cancels the whole pipeline through its
// context and drains every goroutine.
//
// Tests assert that replicas remain numerically synchronized after
// every step and that data-parallel training matches a single-worker
// oracle.
package train

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"trainbox/internal/collective"
	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/metrics"
	"trainbox/internal/nn"
	"trainbox/internal/pipeline"
	"trainbox/internal/storage"
)

// FeatureFn converts one prepared sample into an (input, label) pair for
// the model. It must be deterministic.
type FeatureFn func(dataprep.Prepared) (x []float64, label int, err error)

// Config describes a training run.
type Config struct {
	// Replicas is the number of data-parallel model replicas
	// ("accelerators"), each run by its own goroutine.
	Replicas int
	// Widths are the MLP layer widths (input … output).
	Widths []int
	// Epochs is the number of passes over the dataset keys.
	Epochs int
	// MinibatchPerReplica splits each replica's shard into SGD
	// minibatches of this size; ≤ 0 means one minibatch per shard.
	MinibatchPerReplica int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the optional SGD momentum coefficient in [0,1).
	Momentum float64
	// WeightDecay is the optional L2 coefficient.
	WeightDecay float64
	// PrefetchDepth is the next-batch pipeline depth (≥ 1).
	PrefetchDepth int
	// Seed initializes the identical model replicas and the pipeline.
	Seed int64
	// Metrics receives the driver's telemetry (step latency, sync
	// latency, samples, prep-vs-step overlap, and the prepare→extract→
	// step pipeline's stage metrics). Nil selects a private registry;
	// either way Result.Metrics carries the final snapshot. Share one
	// registry between the Config, the executor (Executor.WithMetrics),
	// and the store (Store.WithMetrics) to see the whole data path in a
	// single snapshot.
	Metrics *metrics.Registry
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Replicas < 1 {
		return fmt.Errorf("train: need ≥ 1 replica, got %d", c.Replicas)
	}
	if len(c.Widths) < 2 {
		return fmt.Errorf("train: model needs input and output widths")
	}
	for _, w := range c.Widths {
		if w < 1 {
			return fmt.Errorf("train: layer widths %v must all be ≥ 1", c.Widths)
		}
	}
	if c.Epochs < 1 {
		return fmt.Errorf("train: need ≥ 1 epoch")
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("train: learning rate must be positive")
	}
	if c.PrefetchDepth < 1 {
		return fmt.Errorf("train: prefetch depth must be ≥ 1")
	}
	return nil
}

// StepStat records one synchronized step.
type StepStat struct {
	Epoch     int
	MeanLoss  float64
	SyncNanos int64
	Samples   int
}

// Result is a finished run.
type Result struct {
	// Replicas holds the trained replicas (all numerically identical).
	Replicas []*nn.Network
	// Steps records per-step statistics in order.
	Steps []StepStat
	// Elapsed is the wall-clock training time.
	Elapsed time.Duration
	// SamplesProcessed is the total sample count.
	SamplesProcessed int
	// Metrics is the final snapshot of the run's telemetry registry
	// (Config.Metrics, or the private registry the driver created).
	Metrics metrics.Snapshot
}

// Model returns replica 0, the trained model.
func (r Result) Model() *nn.Network { return r.Replicas[0] }

// FinalLoss returns the last step's mean loss.
func (r Result) FinalLoss() float64 {
	if len(r.Steps) == 0 {
		return 0
	}
	return r.Steps[len(r.Steps)-1].MeanLoss
}

// epochBatch is one prepared epoch in flight between the prepare and
// extract stages. With data echoing on, the echo stage re-emits it n
// times; all replicas share the prepared samples and pending counts the
// replicas still holding them. A nil pending means a sole holder.
type epochBatch struct {
	epoch   int
	samples []dataprep.Prepared
	pending *atomic.Int32
}

// release marks one holder done; the last one out recycles the shared
// prepared buffers. It is called by the extract stage after
// featurization and by the run's discard hook for batches dropped on
// cancellation — each holder exactly once, whichever path it takes.
func (eb epochBatch) release(recycle func([]dataprep.Prepared)) {
	if recycle != nil && (eb.pending == nil || eb.pending.Add(-1) == 0) {
		recycle(eb.samples)
	}
}

// epochSamples is one extracted epoch on its way to the step stage.
type epochSamples struct {
	epoch   int
	samples []nn.Sample
}

// EpochPreparer produces one epoch's prepared samples for the keyed
// dataset. It is the seam between the training driver and whichever
// data-preparation path serves the run — the host executor (Run wraps
// one automatically), an fpga.Cluster's self-healing pool, or a chaos
// harness injecting faults — all interchangeable because per-sample
// augmentation depends only on (dataset seed, key, epoch).
type EpochPreparer func(ctx context.Context, epoch int) ([]dataprep.Prepared, error)

// Option configures a training run — where its prepared samples come
// from (WithDataset or WithPreparer, exactly one), how they map to
// model inputs (WithFeature, required), and the data-path accelerators:
// a shared decode cache (WithCache) and data echoing (WithEchoFactor).
type Option func(*runOptions) error

type runOptions struct {
	prepare EpochPreparer
	numKeys int
	feature FeatureFn
	// exec/store/keys mirror WithDataset's arguments so WithCache can
	// rebuild the prepare path around a shared decode tier.
	exec  *dataprep.Executor
	store *storage.Store
	keys  []string
	cache *dscache.Cache
	// echoFactor (≥ 1) enables the echo stage; zero = off.
	echoFactor int
	// recycle, when set, receives each epoch's prepared samples after
	// the extract stage has converted them to model inputs, returning
	// their buffers to the data source's pools. Requires that the
	// feature function copies out of the prepared sample (all of the
	// repo's feature functions do — they build fresh []float64 inputs).
	recycle func([]dataprep.Prepared)
	// checkpoint/restore and suspension (see checkpoint.go).
	checkpointSink func(Checkpoint)
	restore        *Checkpoint
	suspender      *Suspender
	// sync is the gradient-sync reducer; nil selects the default ring
	// bound to the run's registry.
	sync collective.Reducer
}

// WithSync hands the step stage a caller-owned collective.Reducer to
// reduce gradients through: a collective.NewRing the caller meters
// into its own registry or shares across runs, or a wrapper around one
// (the benchmark times every Reduce this way). A ring reduces in the
// same order however it was built, so the trained weights are
// bit-identical to the default's. Defaults to a ring bound to the run's
// metrics registry.
func WithSync(r collective.Reducer) Option {
	return func(o *runOptions) error {
		if r == nil {
			return fmt.Errorf("train: WithSync needs a non-nil reducer")
		}
		if o.sync != nil {
			return fmt.Errorf("train: WithSync configured twice")
		}
		o.sync = r
		return nil
	}
}

// WithDataset serves the run from the host data-preparation path: each
// epoch prepares the keyed dataset with exec over store.
func WithDataset(exec *dataprep.Executor, store *storage.Store, keys []string) Option {
	return func(o *runOptions) error {
		if exec == nil || store == nil {
			return fmt.Errorf("train: WithDataset needs an executor and a store")
		}
		if o.prepare != nil {
			return fmt.Errorf("train: multiple data sources configured")
		}
		keysCopy := append([]string(nil), keys...)
		o.prepare = func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
			return exec.PrepareBatchContext(ctx, store, keysCopy, epoch)
		}
		o.numKeys = len(keysCopy)
		// The executor owns the prepared buffers; hand each epoch back
		// after extraction so steady-state training recycles them.
		o.recycle = func(ps []dataprep.Prepared) { exec.Recycle(ps...) }
		o.exec, o.store, o.keys = exec, store, keysCopy
		return nil
	}
}

// WithCache serves the run's decodes through a shared dscache tier: the
// executor's preparer is swapped for its cache-backed equivalent
// (dscache.Bind), and each epoch's keys are prepared resident-first
// (Cache.OrderKeys) so warm entries are consumed before eviction
// pressure builds — then restored to the caller's key order, keeping
// the epoch bit-identical to the uncached run. Requires WithDataset;
// concurrent runs sharing one cache amortize each key's decode to a
// single invocation (single-flight).
//
// dscache.Bind rebinds the caller's executor, not a copy: exec keeps
// the cache-backed preparer after Run returns, for as long as it lives,
// so later batches and runs on it go through c whether or not they pass
// WithCache again.
func WithCache(c *dscache.Cache) Option {
	return func(o *runOptions) error {
		if c == nil {
			return fmt.Errorf("train: WithCache needs a non-nil cache")
		}
		if o.cache != nil {
			return fmt.Errorf("train: WithCache configured twice")
		}
		o.cache = c
		return nil
	}
}

// WithEchoFactor enables data echoing at a fixed factor n ≥ 1: an echo
// stage between prepare and extract re-emits each prepared epoch n
// times, so the (serial) step stage trains n times per preparation —
// the Choi et al. data-echoing move for prep-bound runs. The replicas
// share one prepared buffer set, recycled when the last is consumed.
// n = 1 still inserts the stage (it must be a bit-identical no-op —
// the transparency oracle the tests pin down).
func WithEchoFactor(n int) Option {
	return func(o *runOptions) error {
		if n < 1 {
			return fmt.Errorf("train: echo factor must be ≥ 1, got %d", n)
		}
		if o.echoFactor != 0 {
			return fmt.Errorf("train: WithEchoFactor configured twice")
		}
		o.echoFactor = n
		return nil
	}
}

// WithPreparer serves the run from an arbitrary EpochPreparer — an
// fpga.Cluster's self-healing pool, a preppool job's split host/pool
// path, or a chaos harness. numKeys is the per-epoch sample count
// (used for buffer sizing and replica-feeding validation).
func WithPreparer(p EpochPreparer, numKeys int) Option {
	return func(o *runOptions) error {
		if p == nil {
			return fmt.Errorf("train: WithPreparer needs a non-nil preparer")
		}
		if o.prepare != nil {
			return fmt.Errorf("train: multiple data sources configured")
		}
		o.prepare = p
		o.numKeys = numKeys
		return nil
	}
}

// BlockFeature is the image feature map of the CLIs, the examples,
// serve and the autoscale study: the mean of each 4×4 block of the
// prepared tensor's first channel, row-major, so a W-wide crop yields
// (W/4)² inputs.
func BlockFeature(p dataprep.Prepared) ([]float64, int, error) {
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

// WithFeature sets the sample→(input, label) mapping. Required.
func WithFeature(f FeatureFn) Option {
	return func(o *runOptions) error {
		if f == nil {
			return fmt.Errorf("train: WithFeature needs a non-nil feature function")
		}
		o.feature = f
		return nil
	}
}

// Run trains data-parallel replicas as one staged pipeline: a prepare
// stage (queue depth = PrefetchDepth) overlaps each epoch's data
// preparation with the previous epoch's computation; an extract stage
// converts prepared samples to model inputs into pooled buffers; the
// serial step stage splits each epoch across replicas, backpropagates
// in parallel (pipeline.ForEach), reduces gradients through the
// ring all-reduce (WithSync to supply a caller-owned one), and
// applies one synchronous SGD step per minibatch. The first error
// anywhere — or ctx being cancelled — cancels the pipeline and drains
// every goroutine.
//
// The run is configured by options: exactly one data source
// (WithDataset for the host executor path, WithPreparer for anything
// else) plus the required WithFeature.
func Run(ctx context.Context, cfg Config, opts ...Option) (Result, error) {
	var o runOptions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return Result{}, err
		}
	}
	if o.prepare == nil {
		return Result{}, fmt.Errorf("train: no data source (use WithDataset or WithPreparer)")
	}
	if o.feature == nil {
		return Result{}, fmt.Errorf("train: no feature function (use WithFeature)")
	}
	if o.cache != nil {
		if err := bindCache(&o); err != nil {
			return Result{}, err
		}
	}
	return run(ctx, cfg, o)
}

// bindCache rebuilds the WithDataset prepare path around the shared
// cache tier: the executor's preparer is swapped for its dscache
// counterpart and each epoch prepares resident keys first, restoring
// the original key order afterwards so the epoch stays bit-identical.
func bindCache(o *runOptions) error {
	if o.exec == nil {
		return fmt.Errorf("train: WithCache requires WithDataset")
	}
	fp, ok := dscache.Bind(o.cache, o.exec)
	if !ok {
		return fmt.Errorf("train: WithCache: preparer %T has no cached form", o.exec.Preparer())
	}
	c, exec, store, keys := o.cache, o.exec, o.store, o.keys
	o.prepare = func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
		ordered := c.OrderKeys(keys, fp)
		ps, err := exec.PrepareBatchContext(ctx, store, ordered, epoch)
		if err != nil {
			return nil, err
		}
		return restoreOrder(ps, keys), nil
	}
	return nil
}

// restoreOrder re-sequences one epoch's prepared samples back into the
// caller's key order after a cache-aware (resident-first) prepare pass.
// Per-sample augmentation depends only on (dataset seed, key, epoch) —
// never on position — so preparing in a different order changes nothing
// per sample, and restoring the order keeps the whole epoch
// bit-identical to the uncached run.
func restoreOrder(ps []dataprep.Prepared, keys []string) []dataprep.Prepared {
	pos := make(map[string][]int, len(keys))
	for i, k := range keys {
		pos[k] = append(pos[k], i)
	}
	out := make([]dataprep.Prepared, len(ps))
	for _, p := range ps {
		q := pos[p.Key]
		if len(q) == 0 {
			// A key outside the requested set: the permutation invariant
			// broke somewhere upstream — fall back to prepared order
			// rather than dropping the sample (and its pooled buffers).
			return ps
		}
		out[q[0]] = p
		pos[p.Key] = q[1:]
	}
	return out
}

// run is the driver pipeline behind Run, entered once the options are
// resolved.
func run(ctx context.Context, cfg Config, o runOptions) (Result, error) {
	prepare, numKeys, feature := o.prepare, o.numKeys, o.feature
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if numKeys < cfg.Replicas {
		return Result{}, fmt.Errorf("train: %d keys cannot feed %d replicas", numKeys, cfg.Replicas)
	}

	replicas := make([]*nn.Network, cfg.Replicas)
	opts := make([]*nn.SGD, cfg.Replicas)
	for i := range replicas {
		replicas[i] = nn.NewMLP(cfg.Widths, rand.New(rand.NewSource(cfg.Seed)))
		opt, err := nn.NewSGD(cfg.LearningRate, cfg.Momentum, cfg.WeightDecay)
		if err != nil {
			return Result{}, err
		}
		opts[i] = opt
	}

	// Restoring a checkpoint overwrites the fresh initialization and
	// resumes the epoch schedule where the snapshot left off. Replica
	// init consumed its RNG entirely above and augmentation depends only
	// on (seed, key, epoch), so the remaining epochs are bit-identical
	// to an uninterrupted run.
	startEpoch := 0
	if o.restore != nil {
		cp := *o.restore
		if err := cp.validateFor(cfg); err != nil {
			return Result{}, err
		}
		for i := range replicas {
			if err := replicas[i].SetWeights(cp.Replicas[i]); err != nil {
				return Result{}, fmt.Errorf("train: restore replica %d: %w", i, err)
			}
			if err := opts[i].SetVelocity(replicas[i], cp.Velocity[i]); err != nil {
				return Result{}, fmt.Errorf("train: restore replica %d velocity: %w", i, err)
			}
		}
		startEpoch = cp.Epoch + 1
	}

	// Epoch sample buffers cycle between the extract stage and the end of
	// the step stage instead of being reallocated every epoch.
	samplePool := pipeline.NewPool(func() []nn.Sample { return make([]nn.Sample, 0, numKeys) })

	// prepBusyNs/stepBusyNs accumulate live stage busy time so the
	// overlap gauge updates every epoch (autoscalers read it mid-run);
	// the end-of-run pass below overwrites it with the pipeline's own
	// authoritative stats.
	var prepBusyNs, stepBusyNs atomic.Int64

	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	tm := &trainMetrics{
		stepNs:     reg.Histogram("train.driver.step_ns"),
		syncNs:     reg.Histogram("train.driver.sync_ns"),
		syncRounds: reg.Counter("train.driver.sync_rounds"),
		samples:    reg.Counter("train.driver.samples"),
		rate:       reg.Meter("train.driver.samples_rate"),
	}
	sync := o.sync
	if sync == nil {
		// Default: the chunked ring, metered into the run's registry.
		ring, err := collective.NewRing(collective.WithMetrics(reg))
		if err != nil {
			return Result{}, err
		}
		sync = ring
	}
	overlap := reg.Gauge("train.driver.prep_step_overlap")

	prepStage := pipeline.NewStage("prepare", 1, cfg.PrefetchDepth,
		func(ctx context.Context, epoch int) (epochBatch, error) {
			t0 := time.Now()
			batch, err := prepare(ctx, epoch)
			prepBusyNs.Add(time.Since(t0).Nanoseconds())
			if err != nil {
				return epochBatch{}, err
			}
			return epochBatch{epoch: epoch, samples: batch}, nil
		})

	stages := []*pipeline.Stage{prepStage}
	if n := o.echoFactor; n > 0 {
		// The echo stage re-emits each prepared epoch n times; the
		// replicas share the prepared buffers behind one refcount.
		echoFactorGauge := reg.Gauge("train.driver.echo_factor")
		echoReplays := reg.Counter("train.driver.echo_replays")
		stages = append(stages, pipeline.NewExpandStage("echo", 0,
			func(_ context.Context, eb epochBatch) ([]epochBatch, error) {
				echoFactorGauge.Set(float64(n))
				if n > 1 {
					echoReplays.Add(int64(n - 1))
				}
				eb.pending = new(atomic.Int32)
				eb.pending.Store(int32(n))
				out := make([]epochBatch, n)
				for i := range out {
					out[i] = eb
				}
				return out, nil
			}))
	}
	extractStage := pipeline.NewStage("extract", 1, 0,
		func(_ context.Context, eb epochBatch) (epochSamples, error) {
			samples, err := extract(eb.samples, feature, samplePool.Get())
			// The feature function copied out everything it needs (or
			// failed); either way this holder is done with the prepared
			// buffers, which can go back to the source's pools.
			eb.release(o.recycle)
			if err != nil {
				return epochSamples{}, err
			}
			return epochSamples{epoch: eb.epoch, samples: samples}, nil
		})

	step := pipeline.NewStage("step", 1, 0,
		func(ctx context.Context, es epochSamples) ([]StepStat, error) {
			t0 := time.Now()
			stats, err := trainEpoch(ctx, cfg, replicas, opts, es.samples, es.epoch, sync, tm)
			stepBusyNs.Add(time.Since(t0).Nanoseconds())
			samplePool.Put(es.samples[:0])
			if err != nil {
				return nil, err
			}
			if sb := stepBusyNs.Load(); sb > 0 {
				overlap.Set(float64(prepBusyNs.Load()) / float64(sb))
			}
			// Epoch boundary: the step stage is the sole weight mutator,
			// so snapshots taken here are consistent. Every non-final
			// epoch feeds the sink; a pending Suspend then parks the run
			// on that checkpoint.
			final := es.epoch == cfg.Epochs-1
			if o.checkpointSink != nil && !final {
				o.checkpointSink(capture(cfg, replicas, opts, es.epoch))
			}
			if o.suspender != nil && !final && o.suspender.Requested() {
				return nil, fmt.Errorf("train: parked after epoch %d of %d: %w", es.epoch, cfg.Epochs, ErrSuspended)
			}
			return stats, nil
		})
	pl, err := pipeline.New("train", append(stages, extractStage, step)...)
	if err != nil {
		return Result{}, err
	}
	// Cancellation can drop any stage payload mid-flight; the discard
	// hook gives every dropped value its owner-side cleanup so pooled
	// buffers flow back even on abandoned runs.
	pl.WithDiscard(func(v any) {
		switch x := v.(type) {
		case epochBatch:
			x.release(o.recycle)
		case epochSamples:
			samplePool.Put(x.samples[:0])
		}
	})

	res := Result{Replicas: replicas}
	start := time.Now()
	run := pl.WithMetrics(reg).Run(ctx, pipeline.RangeSource(startEpoch, cfg.Epochs))
	epochStats, err := pipeline.Drain[[]StepStat](run)
	if err != nil {
		return Result{}, err
	}
	for _, stats := range epochStats {
		for _, s := range stats {
			res.Steps = append(res.Steps, s)
			res.SamplesProcessed += s.Samples
		}
	}
	res.Elapsed = time.Since(start)

	// Prep-vs-step overlap: how much of the (serial) step stage's busy
	// time the prepare stage ran concurrently under. A ratio near 1 means
	// preparation is fully hidden behind computation — the paper's
	// Section II-B overlap property; > 1 means preparation is the
	// bottleneck and the accelerators starve.
	var prepBusy, stepBusy time.Duration
	for _, st := range run.Stats() {
		switch st.Name {
		case "prepare":
			prepBusy = st.Busy
		case "step":
			stepBusy = st.Busy
		}
	}
	if stepBusy > 0 {
		overlap.Set(float64(prepBusy) / float64(stepBusy))
	}
	res.Metrics = reg.Snapshot()
	return res, nil
}

// trainMetrics carries the driver's per-step metric handles into
// trainEpoch.
type trainMetrics struct {
	stepNs     *metrics.Histogram
	syncNs     *metrics.Histogram
	syncRounds *metrics.Counter
	samples    *metrics.Counter
	rate       *metrics.Meter
}

// extract converts one prepared epoch into model samples, reusing the
// pooled buffer.
func extract(batch []dataprep.Prepared, feature FeatureFn, buf []nn.Sample) ([]nn.Sample, error) {
	buf = buf[:0]
	for _, p := range batch {
		x, label, err := feature(p)
		if err != nil {
			return nil, fmt.Errorf("train: feature for %q: %w", p.Key, err)
		}
		buf = append(buf, nn.Sample{X: x, Label: label})
	}
	return buf, nil
}

// trainEpoch runs synchronous data-parallel SGD over one prepared epoch.
func trainEpoch(ctx context.Context, cfg Config, replicas []*nn.Network, opts []*nn.SGD, samples []nn.Sample, epoch int, sync collective.Reducer, tm *trainMetrics) ([]StepStat, error) {
	r := cfg.Replicas
	mb := cfg.MinibatchPerReplica
	shard := len(samples) / r
	if shard == 0 {
		return nil, fmt.Errorf("train: epoch %d has %d samples for %d replicas", epoch, len(samples), r)
	}
	if mb <= 0 || mb > shard {
		mb = shard
	}
	// The reducer works on the replicas' live gradient buffers, and each
	// replica averages and applies its reduced gradients in place,
	// concurrently with the others.
	grads := make([][]float64, r)
	for rep, net := range replicas {
		grads[rep] = net.GradientBuffer()
	}
	losses := make([]float64, r)
	off, global := 0, float64(r*mb)
	backprop := func(_ context.Context, rep int) error {
		replicas[rep].ZeroGrad()
		losses[rep] = replicas[rep].TrainBatch(samples[rep*shard+off : rep*shard+off+mb])
		return nil
	}
	apply := func(_ context.Context, rep int) error {
		avg := grads[rep]
		for i := range avg {
			avg[i] /= global
		}
		opts[rep].Step(replicas[rep], 1)
		return nil
	}
	stats := make([]StepStat, 0, shard/mb)
	for ; off+mb <= shard; off += mb {
		stepStart := time.Now()
		if err := pipeline.ForEach(ctx, r, backprop); err != nil {
			return nil, err
		}

		syncStart := time.Now()
		if err := sync.Reduce(ctx, grads); err != nil {
			return nil, err
		}
		syncNanos := time.Since(syncStart).Nanoseconds()
		tm.syncRounds.Inc()

		if err := pipeline.ForEach(ctx, r, apply); err != nil {
			return nil, err
		}
		var total float64
		for _, loss := range losses {
			total += loss
		}
		stats = append(stats, StepStat{
			Epoch:     epoch,
			MeanLoss:  total / global,
			SyncNanos: syncNanos,
			Samples:   r * mb,
		})
		tm.stepNs.ObserveDuration(time.Since(stepStart))
		tm.syncNs.Observe(float64(syncNanos))
		tm.samples.Add(int64(r * mb))
		tm.rate.Mark(int64(r * mb))
	}
	return stats, nil
}

// MaxReplicaDivergence returns the largest absolute parameter difference
// between replica 0 and any other replica — the synchronization
// invariant (0 for a correct run, up to float addition order).
func MaxReplicaDivergence(replicas []*nn.Network) float64 {
	var maxD float64
	if len(replicas) == 0 {
		return 0
	}
	base := replicas[0]
	for _, other := range replicas[1:] {
		for li, l := range base.Layers {
			ol := other.Layers[li]
			for i := range l.W {
				if d := abs(l.W[i] - ol.W[i]); d > maxD {
					maxD = d
				}
			}
			for i := range l.B {
				if d := abs(l.B[i] - ol.B[i]); d > maxD {
					maxD = d
				}
			}
		}
	}
	return maxD
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
