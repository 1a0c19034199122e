package serve

import (
	"context"
	"fmt"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/preppool"
	"trainbox/internal/storage"
	"trainbox/internal/train"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// Runner is the server's training backend: it executes one admitted job
// to completion (or cancellation via ctx), wired for suspension through
// e. id is the server-assigned job ID — unique per server, valid as a
// preppool job name. A backend that ignores e still runs every job; its
// runs simply never park.
type Runner interface {
	Run(ctx context.Context, id string, spec JobSpec, e Elastic) (Outcome, error)
}

// Elastic is the server-side harness threaded through every run:
//
//   - Restore, when non-nil, is the epoch-boundary checkpoint the run
//     must resume from (the job was suspended or preempted earlier).
//   - Suspender carries the server's park requests; the run must honor
//     them at epoch boundaries and return an error wrapping
//     train.ErrSuspended once parked.
//   - Checkpoint must be called with every banked epoch-boundary
//     checkpoint (newest last) — the server keeps the latest so a crash
//     mid-epoch loses at most the open epoch.
type Elastic struct {
	Restore    *train.Checkpoint
	Suspender  *train.Suspender
	Checkpoint func(train.Checkpoint)
}

// Training-workload shape every submitted job runs: jobs share one
// synthetic 4-class image corpus (each re-augmenting it under its own
// dataset seed, as tenants sharing a dataset would), cropped small
// enough that a job is milliseconds of real decode→augment→train work.
const (
	runnerCrop     = 16
	runnerClasses  = 4
	runnerLR       = 0.05
	runnerPrefetch = 1
)

// TrainRunner is the real backend: every job trains on the shared
// corpus with its own executor and seed, registered with the shared
// prep-pool (when one is wired) under the job's RequiredRate and
// Priority, and driven through train.Run; settle classifies how the
// run ended.
//
// Build it with NewTrainRunner (host-only) or NewTrainBackend (with a
// device pool). The pooled devices MUST be constructed over this
// runner's Store(), or pooled preparation would read a different
// corpus than the host half of each epoch.
type TrainRunner struct {
	// Pool, when set, serves each job's preparation through
	// internal/preppool.
	Pool *preppool.Pool
	// Workers is the per-job host executor's worker count (default 1).
	Workers int

	store  *storage.Store
	keys   []string
	imgCfg dataprep.ImageConfig
	cache  *dscache.Cache
}

// NewTrainRunner builds the backend's shared corpus: corpusItems
// synthetic JPEG samples under the given seed. Jobs address the first
// JobSpec.Items of them per epoch.
func NewTrainRunner(corpusItems int, seed int64) (*TrainRunner, error) {
	if corpusItems < 1 {
		return nil, fmt.Errorf("serve: corpus needs ≥ 1 item, got %d", corpusItems)
	}
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, corpusItems, runnerClasses, seed); err != nil {
		return nil, err
	}
	imgCfg := dataprep.DefaultImageConfig()
	imgCfg.CropW, imgCfg.CropH = runnerCrop, runnerCrop
	return &TrainRunner{store: store, keys: store.Keys(), imgCfg: imgCfg}, nil
}

// Store returns the shared corpus store (for building pooled devices
// or wiring storage metrics).
func (r *TrainRunner) Store() *storage.Store { return r.store }

// EnableCache puts one shared decode-cache tier under every job the
// backend runs: the corpus is one dataset shared by all tenants, so the
// first job to touch a key decodes it for everyone (dscache
// single-flight), within the byte budget. Tenants keep their own
// augmentation seeds — the cached path is bit-identical per job. Call
// before serving traffic; the returned cache exposes Stats for tests
// and dashboards (metered into reg when non-nil).
func (r *TrainRunner) EnableCache(budget units.Bytes, reg *metrics.Registry) *dscache.Cache {
	r.cache = dscache.New(budget, dscache.WithName("serve")).WithMetrics(reg)
	return r.cache
}

// ImageConfig returns the preparation config pooled device emulators
// must match for bit-identical host/pool epochs.
func (r *TrainRunner) ImageConfig() dataprep.ImageConfig { return r.imgCfg }

// NewTrainBackend builds the whole real training backend in one call:
// the shared corpus, `devices` pooled FPGA handlers over it, and the
// prep-pool (metered into reg, with any extra pool options applied).
// With devices == 0 the runner stays host-only and the pool is nil; a
// negative count is an error.
func NewTrainBackend(devices, corpusItems int, seed int64, reg *metrics.Registry, poolOpts ...preppool.Option) (*TrainRunner, *preppool.Pool, error) {
	if devices < 0 {
		return nil, nil, fmt.Errorf("serve: device count must be ≥ 0, got %d", devices)
	}
	r, err := NewTrainRunner(corpusItems, seed)
	if err != nil {
		return nil, nil, err
	}
	if devices == 0 {
		return r, nil, nil
	}
	ns, err := nvme.LoadStore(r.store)
	if err != nil {
		return nil, nil, err
	}
	handlers := make([]*fpga.P2PHandler, devices)
	for i := range handlers {
		h, err := fpga.NewP2PHandler(ns, fpga.NewImageEmulator(r.imgCfg), 8, fpga.WithMetrics(reg))
		if err != nil {
			return nil, nil, err
		}
		handlers[i] = h
	}
	opts := append([]preppool.Option{preppool.WithMetrics(reg)}, poolOpts...)
	pool, err := preppool.NewPool(handlers, opts...)
	if err != nil {
		return nil, nil, err
	}
	r.Pool = pool
	return r, pool, nil
}

// Run implements Runner with a real training run wired for suspension:
// every epoch boundary banks a checkpoint through e.Checkpoint, park
// requests on e.Suspender are honored at the next boundary, and a
// non-nil e.Restore resumes bit-identically from a prior checkpoint. A
// resumed run's Outcome counts only the resumed leg's samples and
// steps; the restored epochs were counted by the leg that banked them.
func (r *TrainRunner) Run(ctx context.Context, id string, spec JobSpec, e Elastic) (out Outcome, retErr error) {
	items := spec.Items
	if items > len(r.keys) {
		items = len(r.keys)
	}
	if items < spec.Replicas {
		return Outcome{}, fmt.Errorf("%w: corpus of %d items cannot feed %d replicas", ErrBadSpec, len(r.keys), spec.Replicas)
	}
	keys := r.keys[:items]
	workers := r.Workers
	if workers < 1 {
		workers = 1
	}
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: r.imgCfg}, workers, spec.Seed)
	if r.cache != nil && r.Pool != nil {
		// The pool path bypasses train.WithCache (it needs WithDataset),
		// so rebind the job's host executor directly; the host half of
		// every split epoch then rides the shared tier.
		dscache.Bind(r.cache, exec)
	}

	opts := []train.Option{train.WithFeature(train.BlockFeature)}
	if e.Suspender != nil {
		opts = append(opts, train.WithSuspender(e.Suspender))
	}
	if e.Checkpoint != nil {
		opts = append(opts, train.WithCheckpointEvery(1), train.WithCheckpointSink(e.Checkpoint))
	}
	if e.Restore != nil {
		opts = append(opts, train.WithRestore(*e.Restore))
	}
	if r.Pool != nil {
		pj, err := r.Pool.Register(preppool.JobSpec{
			Name:         id,
			Type:         workload.Image,
			RequiredRate: units.SamplesPerSec(spec.RequiredRate),
			Priority:     spec.Priority,
			Exec:         exec,
			Store:        r.store,
			DatasetSeed:  spec.Seed,
		})
		if err != nil {
			return Outcome{}, err
		}
		defer func() {
			if cerr := pj.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
		opts = append(opts, train.WithPreparer(pj.Preparer(keys), len(keys)))
	} else {
		opts = append(opts, train.WithDataset(exec, r.store, keys))
		if r.cache != nil {
			opts = append(opts, train.WithCache(r.cache))
		}
	}

	side := runnerCrop / 4 // train.BlockFeature averages 4×4 blocks
	cfg := train.Config{
		Replicas:      spec.Replicas,
		Widths:        []int{side * side, 8, runnerClasses},
		Epochs:        spec.Epochs,
		LearningRate:  runnerLR,
		PrefetchDepth: runnerPrefetch,
		Seed:          spec.Seed,
	}
	res, err := train.Run(ctx, cfg, opts...)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		FinalLoss: res.FinalLoss(),
		Samples:   res.SamplesProcessed,
		Steps:     len(res.Steps),
		ElapsedMs: float64(res.Elapsed.Nanoseconds()) / 1e6,
	}, nil
}
