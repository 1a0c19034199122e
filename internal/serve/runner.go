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
	runnerWorkers  = 1 // per-job host executor workers
)

// TrainRunner is the real backend: every job trains on the shared
// corpus with its own executor and seed, registered with the shared
// prep-pool (when one is wired) under the job's RequiredRate and
// Priority, and driven through train.Run; settle classifies how the
// run ended.
//
// Build it with NewTrainBackend, which builds the pooled devices over
// the runner's own corpus, so the pooled and host halves of each epoch
// read the same samples.
type TrainRunner struct {
	pool   *preppool.Pool // nil: every job prepares on the host
	store  *storage.Store
	keys   []string
	imgCfg dataprep.ImageConfig
	cache  *dscache.Cache
}

// Store returns the shared corpus store (for wiring storage metrics).
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
// the shared corpus (corpusItems synthetic JPEG samples under seed; jobs
// address the first JobSpec.Items of them per epoch), `devices` pooled
// FPGA handlers over it, and the prep-pool (metered into reg). With
// devices == 0 the runner stays host-only and the pool is nil; a
// negative count is an error.
func NewTrainBackend(devices, corpusItems int, seed int64, reg *metrics.Registry) (*TrainRunner, *preppool.Pool, error) {
	if devices < 0 {
		return nil, nil, fmt.Errorf("serve: device count must be ≥ 0, got %d", devices)
	}
	if corpusItems < 1 {
		return nil, nil, fmt.Errorf("serve: corpus needs ≥ 1 item, got %d", corpusItems)
	}
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, corpusItems, runnerClasses, seed); err != nil {
		return nil, nil, err
	}
	imgCfg := dataprep.DefaultImageConfig()
	imgCfg.CropW, imgCfg.CropH = runnerCrop, runnerCrop
	r := &TrainRunner{store: store, keys: store.Keys(), imgCfg: imgCfg}
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
	pool, err := preppool.NewPool(handlers, preppool.WithMetrics(reg))
	if err != nil {
		return nil, nil, err
	}
	r.pool = pool
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
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: r.imgCfg}, runnerWorkers, spec.Seed)
	if r.cache != nil {
		dscache.Bind(r.cache, exec)
	}

	opts := []train.Option{train.WithFeature(train.BlockFeature)}
	if e.Suspender != nil {
		opts = append(opts, train.WithSuspender(e.Suspender))
	}
	if e.Checkpoint != nil {
		opts = append(opts, train.WithCheckpointSink(e.Checkpoint))
	}
	if e.Restore != nil {
		opts = append(opts, train.WithRestore(*e.Restore))
	}
	if r.pool != nil {
		pj, err := r.pool.Register(preppool.JobSpec{
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
