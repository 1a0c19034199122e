package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"trainbox/internal/collective"
	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/dsp"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/storage"
	"trainbox/internal/train"
	"trainbox/internal/units"
)

// Sizes fixed by the benchmark, not tuned at run time, so that parent
// and change do identical work. Epoch counts make one repetition ≈ 2.4 s
// on the 2-core reference box: five repetitions fill runSeconds.
const (
	numClasses   = 4
	modelSeed    = 1 // model initialization is not an input; -seed does not reach it
	learningRate = 0.05
	setupReps    = 5
	minTimedReps = 5
	nvmeDepth    = 8
	featureBlock = 4
)

// trainSpec is one train.Run workload.
type trainSpec struct {
	name    string
	audio   bool
	offload bool // prepare on fpga.P2PHandlers behind an fpga.Cluster
	cacheMB int  // > 0: one dscache tier across repetitions
	items   int
	cfg     train.Config
}

func trainSpecs(quick bool) []trainSpec {
	numMels := dsp.DefaultMelConfig().NumMels
	crop := dataprep.DefaultImageConfig().CropW / featureBlock
	imgIn := crop * crop
	specs := []trainSpec{
		{name: "image_host", items: 64,
			cfg: train.Config{Replicas: 2, Widths: []int{imgIn, 32, numClasses}, Epochs: 24, PrefetchDepth: 2}},
		{name: "audio_host", audio: true, items: 32,
			cfg: train.Config{Replicas: 2, Widths: []int{numMels, 32, numClasses}, Epochs: 8, PrefetchDepth: 2}},
		{name: "image_offload", offload: true, items: 64,
			cfg: train.Config{Replicas: 2, Widths: []int{imgIn, 32, numClasses}, Epochs: 24, PrefetchDepth: 2}},
		{name: "step_bound_cached", cacheMB: 64, items: 64,
			cfg: train.Config{Replicas: 4, Widths: []int{imgIn, 256, numClasses}, MinibatchPerReplica: 8, Epochs: 14, PrefetchDepth: 2}},
	}
	for i := range specs {
		specs[i].cfg.LearningRate = learningRate
		specs[i].cfg.Seed = modelSeed
		if quick {
			specs[i].items = 8
			specs[i].cfg.Epochs = 2
		}
	}
	return specs
}

// expectedSamples is floor-sharded items × epochs: each replica takes
// items/replicas samples and drops a partial minibatch.
func (s trainSpec) expectedSamples() int {
	shard := s.items / s.cfg.Replicas
	mb := s.cfg.MinibatchPerReplica
	if mb <= 0 || mb > shard {
		mb = shard
	}
	return shard / mb * mb * s.cfg.Replicas * s.cfg.Epochs
}

// trainEnv is a built workload: corpus, store, and whichever prepare
// path the spec names. reg is nil on untraced runs.
type trainEnv struct {
	spec    trainSpec
	seed    int64
	workers int
	store   *storage.Store
	keys    []string
	exec    *dataprep.Executor // host path; nil on offload
	cluster *fpga.Cluster      // offload path
	client  *nvme.Client       // replay's read path on offload
	cache   *dscache.Cache
	reg     *metrics.Registry
	imgCfg  dataprep.ImageConfig
	audCfg  dataprep.AudioConfig
}

func (e *trainEnv) hostPreparer() dataprep.Preparer {
	if e.spec.audio {
		return dataprep.AudioPreparer{Config: e.audCfg}
	}
	return dataprep.ImagePreparer{Config: e.imgCfg}
}

// buildTrainEnv is the workload's whole set-up — what setup_s times.
func buildTrainEnv(spec trainSpec, seed int64, reg *metrics.Registry) (*trainEnv, error) {
	e := &trainEnv{
		spec: spec, seed: seed, workers: runtime.GOMAXPROCS(0), reg: reg,
		imgCfg: dataprep.DefaultImageConfig(), audCfg: dataprep.DefaultAudioConfig(),
	}
	e.store = storage.NewStore(storage.DefaultSSDSpec())
	if reg != nil {
		e.store.WithMetrics(reg)
	}
	build := dataprep.BuildImageDataset
	if spec.audio {
		build = dataprep.BuildAudioDataset
	}
	if err := build(e.store, spec.items, numClasses, seed); err != nil {
		return nil, err
	}
	e.keys = e.store.Keys()

	if spec.offload {
		ns, err := nvme.LoadStore(e.store)
		if err != nil {
			return nil, err
		}
		var opts []fpga.Option
		if reg != nil {
			opts = append(opts, fpga.WithMetrics(reg))
		}
		handlers := make([]*fpga.P2PHandler, e.workers)
		for i := range handlers {
			if handlers[i], err = fpga.NewP2PHandler(ns, fpga.NewImageEmulator(e.imgCfg), nvmeDepth, opts...); err != nil {
				return nil, err
			}
		}
		if e.cluster, err = fpga.NewCluster(handlers, opts...); err != nil {
			return nil, err
		}
		if e.client, err = nvme.NewClient(ns, nvmeDepth); err != nil {
			return nil, err
		}
		return e, nil
	}

	e.exec = dataprep.NewExecutor(e.hostPreparer(), e.workers, seed)
	if reg != nil {
		e.exec.WithMetrics(reg)
	}
	if spec.cacheMB > 0 {
		e.cache = dscache.New(units.Bytes(spec.cacheMB) * units.MB).WithMetrics(reg)
		if _, ok := dscache.Bind(e.cache, e.exec); !ok {
			return nil, fmt.Errorf("%s: preparer has no cached form", spec.name)
		}
	}
	return e, nil
}

// prepareEpoch is the workload's prepare path called directly: what the
// traced run wraps and what the replay is checked against.
func (e *trainEnv) prepareEpoch(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
	if e.cluster != nil {
		return e.cluster.PrepareBatch(ctx, e.keys, e.seed, epoch)
	}
	return e.exec.PrepareBatchContext(ctx, e.store, e.keys, epoch)
}

// feature maps a prepared sample to the model input: the 4×4 block mean
// of channel 0 for images, the per-mel-bin mean over frames for audio.
func feature(p dataprep.Prepared) ([]float64, int, error) {
	if sp := p.Audio; sp != nil {
		x := make([]float64, sp.Bins)
		for t := 0; t < sp.Frames; t++ {
			row := sp.Data[t*sp.Bins : (t+1)*sp.Bins]
			for f, v := range row {
				x[f] += v
			}
		}
		for f := range x {
			x[f] /= float64(sp.Frames)
		}
		return x, p.Label, nil
	}
	ten := p.Image
	if ten == nil {
		return nil, 0, fmt.Errorf("sample %q has no image or audio", p.Key)
	}
	side := ten.W / featureBlock
	x := make([]float64, side*side)
	plane := ten.Data[:ten.H*ten.W]
	for by := 0; by < side; by++ {
		for bx := 0; bx < side; bx++ {
			var s float64
			for y := by * featureBlock; y < (by+1)*featureBlock; y++ {
				row := plane[y*ten.W+bx*featureBlock:]
				for _, v := range row[:featureBlock] {
					s += float64(v)
				}
			}
			x[by*side+bx] = s / (featureBlock * featureBlock)
		}
	}
	return x, p.Label, nil
}

// Trace lanes of the traced train.Run: one per driver stage.
const (
	lanePrepare = 1
	laneExtract = 2
	laneStep    = 3
	laneReplay  = 10
)

// tracedReducer is the Reducer seam: a span around every Reduce.
type tracedReducer struct {
	collective.Reducer
	tr  *tracer
	job string
}

func (r tracedReducer) Reduce(ctx context.Context, grads [][]float64) error {
	start := time.Now()
	err := r.Reducer.Reduce(ctx, grads)
	r.tr.add("collective.reduce", "collective", r.job, -1, -1, laneStep, start, time.Now())
	return err
}

// run is one repetition: one train.Run of the spec. With a tracer the
// same run goes through benchmark-owned wrappers at the public seams
// (WithPreparer, WithFeature, WithSync) and reports into the env's
// registry; WithPreparer has no recycle hook, so a traced host run
// allocates its output buffers fresh — part of bench.trace_overhead_share.
func (e *trainEnv) run(ctx context.Context, tr *tracer) (train.Result, error) {
	cfg := e.spec.cfg
	if tr == nil {
		opts := []train.Option{train.WithFeature(feature)}
		switch {
		case e.cluster != nil:
			opts = append(opts, train.WithPreparer(e.prepareEpoch, len(e.keys)))
		case e.cache != nil:
			opts = append(opts, train.WithDataset(e.exec, e.store, e.keys), train.WithCache(e.cache))
		default:
			opts = append(opts, train.WithDataset(e.exec, e.store, e.keys))
		}
		return train.Run(ctx, cfg, opts...)
	}

	cfg.Metrics = e.reg
	job := e.spec.name
	prepLayer := "dataprep"
	if e.cluster != nil {
		prepLayer = "fpga"
	}
	ring, err := collective.NewRing(collective.WithMetrics(e.reg))
	if err != nil {
		return train.Result{}, err
	}
	return train.Run(ctx, cfg,
		train.WithPreparer(func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
			start := time.Now()
			ps, err := e.prepareEpoch(ctx, epoch)
			tr.add("dataprep.epoch", prepLayer, job, epoch, -1, lanePrepare, start, time.Now())
			return ps, err
		}, len(e.keys)),
		train.WithFeature(func(p dataprep.Prepared) ([]float64, int, error) {
			start := time.Now()
			x, label, err := feature(p)
			tr.add("train.extract", "train", job, -1, -1, laneExtract, start, time.Now())
			return x, label, err
		}),
		train.WithSync(tracedReducer{ring, tr, job}),
	)
}

// weightsFNV fingerprints a trained model: FNV-1a over the bits of
// every weight, so "byte-identical weights" is one string compare.
func weightsFNV(w []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// repetition is what one timed train.Run contributes.
type repetition struct {
	wall    time.Duration
	samples int
	weights string
	loss    float64
	metrics metrics.Snapshot // the run's registry; the trained replicas are not retained
}

func (e *trainEnv) repetition(ctx context.Context, tr *tracer) (repetition, error) {
	res, err := e.run(ctx, tr)
	if err != nil {
		return repetition{}, err
	}
	return repetition{
		wall: res.Elapsed, samples: res.SamplesProcessed,
		weights: weightsFNV(res.Model().Weights()), loss: res.FinalLoss(), metrics: res.Metrics,
	}, nil
}

// memframeBalance is outstanding pooled buffers (Gets − Puts) across the
// executor's output set and the cache's payload pools, after purging
// the cache so resident entries do not count as leaks.
func (e *trainEnv) memframeBalance() int64 {
	var bal int64
	if e.exec != nil {
		st := e.exec.OutputStats()
		bal += st.Gets - st.Puts
	}
	if e.cache != nil {
		e.cache.Purge()
		st := e.cache.PoolStats()
		bal += st.Gets - st.Puts
	}
	return bal
}

// measureSetup builds the workload setupReps times and returns the last
// build with every build's wall time.
func measureSetup[T any](reps int, build func() (T, error), discard func(T)) (T, []float64, error) {
	var env T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(env)
		}
		start := time.Now()
		var err error
		if env, err = build(); err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return env, times, nil
}

// runTrainEndToEnd measures a train workload with tracing off: set-up,
// one untimed warm-up repetition (fills memframe pools, dsp plan caches
// and the dscache tier), then timed repetitions until opt.seconds are
// used (at least minTimedReps).
func runTrainEndToEnd(ctx context.Context, spec trainSpec, opt options) (*report, error) {
	rep := newReport(spec.name, opt)
	reps, minReps := setupReps, minTimedReps
	if opt.quick {
		reps, minReps = 1, 2
	}
	env, setupTimes, err := measureSetup(reps, func() (*trainEnv, error) { return buildTrainEnv(spec, opt.seed, nil) }, nil)
	if err != nil {
		return nil, err
	}

	cold, err := env.repetition(ctx, nil)
	if err != nil {
		return nil, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var timed []repetition
	begin := time.Now()
	for {
		r, err := env.repetition(ctx, nil)
		if err != nil {
			rep.Attempted += spec.expectedSamples()
			rep.Failed += spec.expectedSamples()
			rep.check("run completes", false, "repetition %d: %v", len(timed), err)
			break
		}
		timed = append(timed, r)
		used := time.Since(begin)
		if len(timed) >= minReps && used+r.wall > time.Duration(opt.seconds*float64(time.Second)) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	if len(timed) == 0 {
		return rep, nil
	}

	var rates, walls []float64
	total := 0
	sameWeights, finite := true, true
	for _, r := range timed {
		rates = append(rates, float64(r.samples)/r.wall.Seconds())
		walls = append(walls, float64(r.wall)/float64(time.Millisecond))
		total += r.samples
		rep.Attempted += spec.expectedSamples()
		rep.Failed += spec.expectedSamples() - r.samples
		sameWeights = sameWeights && r.weights == timed[0].weights
		finite = finite && !math.IsNaN(r.loss) && !math.IsInf(r.loss, 0)
	}
	rep.WeightsFNV = timed[0].weights
	rep.Metrics["samples_per_s"] = summarize(rates, "samples/s")
	rep.Metrics["job_latency_ms_p50"] = summarize(walls, "ms")
	rep.Metrics["allocs_per_sample"] = single(float64(ms1.Mallocs-ms0.Mallocs)/float64(total), "count")
	rep.Metrics["alloc_kb_per_sample"] = single(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(total), "KB")
	rep.Metrics["setup_s"] = summarize(setupTimes, "s")
	rep.Sizes = map[string]int{"items": spec.items, "epochs": spec.cfg.Epochs, "repetitions": len(timed)}

	rep.check("samples processed", rep.Failed == 0, "%d of %d requested samples delivered", rep.Attempted-rep.Failed, rep.Attempted)
	rep.check("repetitions bit-identical", sameWeights, "%d repetitions, weights fnv %s", len(timed), timed[0].weights)
	rep.check("loss finite", finite, "final loss %.6g", timed[0].loss)
	// The warm-up is the cold repetition: on step_bound_cached it filled
	// the cache the timed ones read.
	rep.check("cold == warm", cold.weights == timed[0].weights, "cold %s, warm %s", cold.weights, timed[0].weights)
	if spec.offload {
		host := spec
		host.offload = false
		ref, err := buildTrainEnv(host, opt.seed, nil)
		if err != nil {
			return nil, err
		}
		r, err := ref.repetition(ctx, nil)
		if err != nil {
			return nil, err
		}
		rep.check("offload == host", r.weights == timed[0].weights, "host %s, offload %s", r.weights, timed[0].weights)
	}
	bal := env.memframeBalance()
	rep.check("memframe balance", bal == 0, "gets − puts = %d", bal)
	return rep, nil
}

// snapshotDelta reads counters and histogram sums of after relative to
// before: the registry is shared with the warm-up repetition.
type snapshotDelta struct{ before, after metrics.Snapshot }

func (d snapshotDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d snapshotDelta) histSum(name string) float64 {
	return d.after.Histograms[name].Sum - d.before.Histograms[name].Sum
}

// counterSuffix sums the deltas of every counter named prefix…suffix
// (storage names its series after the device, serve after the job).
func (d snapshotDelta) counterSuffix(prefix, suffix string) float64 {
	var t float64
	for name := range d.after.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			t += d.counter(name)
		}
	}
	return t
}

func (d snapshotDelta) histSumSuffix(prefix, suffix string) float64 {
	var t float64
	for name := range d.after.Histograms {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			t += d.histSum(name)
		}
	}
	return t
}

// minGauge is the smallest gauge named prefix…suffix, 0 when none exist.
func minGauge(s metrics.Snapshot, prefix, suffix string) float64 {
	lo, found := 0.0, false
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && (!found || v < lo) {
			lo, found = v, true
		}
	}
	return lo
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTrainTraced produces the per-layer metrics of a train workload:
// an untraced and a traced repetition of the same run (their difference
// is the tracing overhead), the serial kernel replay, and the
// stand-alone layer probes.
func runTrainTraced(ctx context.Context, spec trainSpec, opt options) (*report, error) {
	rep := newReport(spec.name, opt)
	rep.zeroLayers()
	m := rep.Metrics
	tr := newTracer()

	// Untraced reference: warm-up, then one plain repetition.
	plainEnv, err := buildTrainEnv(spec, opt.seed, nil)
	if err != nil {
		return nil, err
	}
	if _, err := plainEnv.repetition(ctx, nil); err != nil {
		return nil, err
	}
	news0 := plainEnv.outputNews()
	plain, err := plainEnv.repetition(ctx, nil)
	if err != nil {
		return nil, err
	}
	m["memframe.news_per_sample"] = single(ratio(float64(plainEnv.outputNews()-news0), float64(plain.samples)), "count")
	bal := plainEnv.memframeBalance()
	m["memframe.gets_minus_puts"] = single(float64(bal), "count")
	rep.check("memframe balance", bal == 0, "gets − puts = %d", bal)

	// Traced repetition on an env whose store, executor, devices, cache
	// and driver share one registry.
	env, err := buildTrainEnv(spec, opt.seed, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	if _, err := env.repetition(ctx, nil); err != nil {
		return nil, err
	}
	var cache0 dscache.Stats
	if env.cache != nil {
		cache0 = env.cache.Stats()
	}
	before := env.reg.Snapshot()
	traced, err := env.repetition(ctx, tr)
	if err != nil {
		return nil, err
	}
	d := snapshotDelta{before, traced.metrics}
	spans := tr.snapshot()
	byName := durationsByName(spans)
	wall := float64(traced.wall)
	samples := float64(traced.samples)
	rep.Attempted, rep.Failed = spec.expectedSamples(), spec.expectedSamples()-traced.samples
	rep.WeightsFNV = traced.weights
	rep.check("samples processed", rep.Failed == 0, "%d of %d requested samples delivered", traced.samples, rep.Attempted)
	rep.check("traced == untraced", traced.weights == plain.weights, "traced %s, untraced %s", traced.weights, plain.weights)

	m["bench.trace_overhead_share"] = single(ratio(wall-float64(plain.wall), float64(plain.wall)), "share")
	m["train.prepare_busy_share"] = single(d.histSum("pipeline.train.prepare.busy_ns")/wall, "share")
	stepBusy := d.histSum("pipeline.train.step.busy_ns") / wall
	m["train.step_busy_share"] = single(stepBusy, "share")
	m["train.step_idle_share"] = single(1-stepBusy, "share")
	m["train.prep_step_overlap"] = single(d.after.Gauges["train.driver.prep_step_overlap"], "ratio")
	m["train.extract_ns_per_sample"] = single(sum(byName["train.extract"])/samples, "ns")
	reduceNs := sum(byName["collective.reduce"])
	rounds := d.counter("collective.ring.rounds")
	m["nn.step_compute_ns_per_sample"] = single((d.histSum("train.driver.step_ns")-reduceNs)/samples, "ns")
	m["collective.rounds"] = single(rounds, "count")
	m["collective.reduce_ms_per_round"] = single(ratio(reduceNs, rounds)/1e6, "ms")
	m["collective.bytes_per_round"] = single(ratio(d.counter("collective.ring.bytes_moved"), rounds), "bytes")
	m["storage.reads"] = single(d.counterSuffix("storage.", ".reads"), "count")
	m["storage.bytes_read"] = single(d.counterSuffix("storage.", ".bytes_read"), "bytes")
	m["dataprep.epoch_ms_p50"] = single(median(byName["dataprep.epoch"])/1e6, "ms")
	epochWallPerSample := sum(byName["dataprep.epoch"]) / samples

	if env.exec != nil {
		m["dataprep.executor_busy_share"] = single(d.histSum("pipeline.dataprep.prepare.busy_ns")/(float64(env.workers)*wall), "share")
		m["pipeline.fetch_busy_ns_per_sample"] = single(ratio(d.histSum("pipeline.dataprep.fetch.busy_ns"), d.counter("pipeline.dataprep.fetch.items")), "ns")
		m["pipeline.prepare_busy_ns_per_sample"] = single(ratio(d.histSum("pipeline.dataprep.prepare.busy_ns"), d.counter("pipeline.dataprep.prepare.items")), "ns")
	} else {
		m["fpga.dispatch_busy_ns_per_sample"] = single(ratio(d.histSum("pipeline.fpga-pool.pool-dispatch.busy_ns"), d.counter("pipeline.fpga-pool.pool-dispatch.items")), "ns")
		m["fpga.device_utilization_min"] = single(minGauge(d.after, "fpga.pool.device.", ".utilization"), "share")
		m["fpga.sample_retries"] = single(d.counter("fpga.pool.sample_retries"), "count")
		m["fpga.degraded_samples"] = single(d.counter("fpga.pool.degraded_samples"), "count")
	}
	if env.cache != nil {
		st := env.cache.Stats()
		hits, misses := float64(st.Hits-cache0.Hits), float64(st.Misses-cache0.Misses)
		m["dscache.hit_share"] = single(ratio(hits, hits+misses), "share")
		m["dscache.decodes_per_key"] = single(float64(st.Misses)/float64(len(env.keys)), "ratio")
		m["dscache.evictions"] = single(float64(st.Evictions-cache0.Evictions), "count")
		m["dscache.singleflight_waits"] = single(float64(st.SingleflightWaits-cache0.SingleflightWaits), "count")
		ns, err := probeCacheHit()
		if err != nil {
			return nil, err
		}
		m["dscache.acquire_hit_ns"] = single(ns, "ns")
	}

	// Serial kernel replay, checked against the workload's own prepare
	// path so its shares may split the prepare stage's busy time.
	rp, err := replay(ctx, tr, replayInput{
		job: spec.name, audio: spec.audio, store: env.store, client: env.client, keys: env.keys,
		seed: opt.seed, imgCfg: env.imgCfg, audCfg: env.audCfg, widths: spec.cfg.Widths, replicas: spec.cfg.Replicas,
	})
	if err != nil {
		return nil, err
	}
	rp.fill(rep)
	mismatch := 0
	for epoch := 0; epoch < replayEpochs; epoch++ {
		ps, err := env.prepareEpoch(ctx, epoch)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			if checksum(p) != rp.checksums[sampleID{p.Key, epoch}] {
				mismatch++
			}
		}
	}
	rep.check("replay == prepare path", mismatch == 0, "%d of %d (key, epoch) checksums differ", mismatch, replayEpochs*len(env.keys))
	// What orchestration costs per item: worker-time the prepare path
	// spent per sample, less what the bare kernels need.
	m["pipeline.overhead_ns_per_sample"] = single(float64(env.workers)*epochWallPerSample-rp.kernelNsPerSample(), "ns")

	if env.exec != nil && env.cache == nil {
		eff, err := probeScaling(ctx, env)
		if err != nil {
			return nil, err
		}
		m["dataprep.scaling_efficiency"] = single(eff, "ratio")
	}
	if !spec.audio {
		if err := probeJpegdec(env.store, env.keys, rep); err != nil {
			return nil, err
		}
	}
	m["bench.peak_rss_mb"] = single(peakRSSMB(), "MB")

	// Workload-validity asserts: a later change that un-stresses the
	// workload shows up here.
	prepBusy := m["train.prepare_busy_share"].Value
	overlap := m["train.prep_step_overlap"].Value
	if spec.cacheMB > 0 {
		rep.assert("step-bound", overlap < 1, "train.prep_step_overlap %.3f (want < 1)", overlap)
		rep.assert("cache warm", m["dscache.hit_share"].Value >= 0.95, "dscache.hit_share %.3f (want ≥ 0.95)", m["dscache.hit_share"].Value)
	} else {
		rep.assert("prep-bound", prepBusy >= 0.9, "train.prepare_busy_share %.3f (want ≥ 0.9)", prepBusy)
	}
	other := "dsp"
	if spec.audio {
		other = "imgproc"
	}
	n := 0
	for _, s := range tr.snapshot() {
		if s.Layer == other {
			n++
		}
	}
	rep.assert("bypassed layer idle", n == 0, "%d %s spans", n, other)

	rep.spans = tr.snapshot()
	return rep, nil
}

// outputNews is the executor output pools' allocation count.
func (e *trainEnv) outputNews() int64 {
	if e.exec == nil {
		return 0
	}
	return e.exec.OutputStats().News
}
