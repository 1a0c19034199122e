// Package dataprep is the data-preparation library of the reproduction:
// the functional equivalent of the paper's Caffe+DALI front-end (baseline)
// and of the FPGA preparation engines (offload path).
//
// It composes the real kernels from internal/imgproc and internal/dsp
// into deterministic per-sample pipelines:
//
//	image: JPEG decode → random crop → random mirror → Gaussian noise → float32 CHW
//	audio: PCM decode → noise augment → log-Mel spectrogram → SpecAugment masks → normalize
//
// Determinism matters: the same (dataset seed, sample key, epoch) triple
// always yields the same augmented sample, which is what lets the tests
// assert that the CPU path and the FPGA emulator produce bit-identical
// outputs — the paper's offload-correctness property.
package dataprep

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
	"trainbox/internal/memframe"
	"trainbox/internal/metrics"
	"trainbox/internal/pipeline"
	"trainbox/internal/storage"
)

// ImageConfig parameterizes the image pipeline.
type ImageConfig struct {
	CropW, CropH int
	// MirrorProb is the probability of a horizontal flip.
	MirrorProb float64
	// NoiseStd is the Gaussian pixel-noise standard deviation (8-bit
	// counts); 0 disables.
	NoiseStd float64
	// Mean and Std are per-channel normalization constants (nil = none).
	Mean, Std []float64
	// Augment disables random crop/mirror/noise when false (center crop
	// only) — the "without augmentation" arm of Figure 5.
	Augment bool
}

// DefaultImageConfig returns the Imagenet-style pipeline: 224×224 random
// crop, 50% mirror, light noise, Imagenet normalization.
func DefaultImageConfig() ImageConfig {
	return ImageConfig{
		CropW: imgproc.ModelSize, CropH: imgproc.ModelSize,
		MirrorProb: 0.5, NoiseStd: 4,
		Mean: imgproc.ImagenetMean, Std: imgproc.ImagenetStd,
		Augment: true,
	}
}

// AudioConfig parameterizes the audio pipeline.
type AudioConfig struct {
	Mel dsp.MelConfig
	// NoiseStd is waveform noise (augmentation); 0 disables.
	NoiseStd float64
	// TimeMaskWidth and FreqMaskWidth are SpecAugment maximum widths;
	// 0 disables that mask.
	TimeMaskWidth int
	FreqMaskWidth int
	// Normalize standardizes the final spectrogram.
	Normalize bool
	// Augment disables noise and masking when false.
	Augment bool
}

// DefaultAudioConfig returns the speech front-end with SpecAugment.
func DefaultAudioConfig() AudioConfig {
	return AudioConfig{
		Mel:      dsp.DefaultMelConfig(),
		NoiseStd: 0.005, TimeMaskWidth: 40, FreqMaskWidth: 15,
		Normalize: true, Augment: true,
	}
}

// SampleSeed derives the deterministic RNG seed for one prepared sample:
// the FNV-64a hash of "datasetSeed|key|epoch", the integers in decimal.
// Identical inputs always produce the identical seed on any platform.
// It hashes the bytes as it formats them, so a sample's seed costs no
// allocation.
func SampleSeed(datasetSeed int64, key string, epoch int) int64 {
	var num [20]byte // the longest int64 in decimal
	h := fnv64a(fnvOffset64, strconv.AppendInt(num[:0], datasetSeed, 10))
	h = fnv64a(h, "|")
	h = fnv64a(h, key)
	h = fnv64a(h, "|")
	h = fnv64a(h, strconv.AppendInt(num[:0], int64(epoch), 10))
	return int64(h)
}

// fnvOffset64 is FNV-64a's initial hash (hash/fnv's offset64).
const fnvOffset64 = 14695981039346656037

// fnv64a folds b into the FNV-64a hash h.
func fnv64a[B string | []byte](h uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Prepared is one pipeline output: exactly one of Image or Audio is
// set.
type Prepared struct {
	Key   string
	Label int
	Image *imgproc.Tensor
	Audio *dsp.Spectrogram
	Err   error

	// owner is the output Set the Image or Audio buffer was drawn from
	// ((*Scratch).Prepare stamps it); nil means a fresh buffer.
	owner *memframe.Set
}

// Recycle hands finished samples' output buffers (tensor and
// spectrogram data) back to the Set each was drawn from — an
// executor's, a P2P handler's — for reuse by later prepares, and
// clears them from ps. Callers must drop every other reference to the
// samples first: touching a recycled buffer races with the next
// prepare. Samples with fresh buffers are left as they are.
func Recycle(ps ...Prepared) {
	for i := range ps {
		p := &ps[i]
		if p.owner == nil {
			continue
		}
		if p.Image != nil && p.Image.Data != nil {
			p.owner.F32.Put(p.Image.Data)
			p.Image = nil
		}
		if p.Audio != nil && p.Audio.Data != nil {
			p.owner.F64.Put(p.Audio.Data)
			p.Audio = nil
		}
		p.owner = nil
	}
}

// Preparer turns a stored object into a prepared sample, running the
// decode→augment→cast kernels in s's buffers and drawing the output
// from s's output set, the Set (*Scratch).Prepare stamps on the
// sample, so an implementation keeps no reference to it; a nil s
// means a throwaway working set, so the caller owns the result
// outright. The output must not depend on s:
// the CPU preparers, the dscache preparers and the FPGA emulator all
// implement this one method, and the contract the tests assert is that
// they are bit-identical for equal seeds.
type Preparer interface {
	Prepare(obj storage.Object, seed int64, s *Scratch) Prepared
}

// ImagePreparer is the CPU image Preparer.
type ImagePreparer struct {
	Config ImageConfig
}

// Prepare implements Preparer.
func (p ImagePreparer) Prepare(obj storage.Object, seed int64, s *Scratch) Prepared {
	t, err := PrepareImageScratch(obj.Data, p.Config, seed, s)
	return Prepared{Key: obj.Key, Label: obj.Label, Image: t, Err: err}
}

// AudioPreparer is the CPU audio Preparer.
type AudioPreparer struct {
	Config AudioConfig
}

// Prepare implements Preparer.
func (p AudioPreparer) Prepare(obj storage.Object, seed int64, s *Scratch) Prepared {
	sp, err := PrepareAudioScratch(obj.Data, p.Config, seed, s)
	return Prepared{Key: obj.Key, Label: obj.Label, Audio: sp, Err: err}
}

// Executor prepares batches on the staged-pipeline runtime — the
// software-pipelined, batched baseline of Section III-B ("batching,
// software pipelining, and data partitioning"). Each batch runs a
// fetch→prepare pipeline: a serial storage-read stage feeding a
// prepare stage with the configured worker parallelism through a
// bounded queue, reporting per-stage telemetry into the attached
// registry.
type Executor struct {
	prep        Preparer
	workers     int
	datasetSeed int64

	// The zero-allocation sample path: every worker draws a pooled
	// Scratch whose output buffers come from out; consumers return
	// finished samples through dataprep.Recycle to close the loop.
	out       *memframe.Set
	scratches *pipeline.Pool[*Scratch]

	reg        *metrics.Registry
	mSamples   *metrics.Counter   // dataprep.executor.samples_prepared
	mPerSample *metrics.Histogram // dataprep.executor.ns_per_sample
	mBatches   *metrics.Counter   // dataprep.executor.batches_prepared
}

// NewExecutor creates an executor; workers ≤ 0 selects GOMAXPROCS.
func NewExecutor(prep Preparer, workers int, datasetSeed int64) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{prep: prep, workers: workers, datasetSeed: datasetSeed}
	e.out = memframe.NewSet()
	e.scratches = pipeline.NewPool(func() *Scratch { return NewScratchWithOutput(e.out) })
	return e
}

// prepareSample runs one sample through the preparer on a pooled
// Scratch.
func (e *Executor) prepareSample(obj storage.Object, seed int64) Prepared {
	s := e.scratches.Get()
	p := s.Prepare(e.prep, obj, seed)
	e.scratches.Put(s)
	return p
}

// Recycle is dataprep.Recycle: each sample's buffer goes back to the
// Set it was drawn from, this executor's or another producer's.
func (e *Executor) Recycle(ps ...Prepared) { Recycle(ps...) }

// Preparer returns the executor's sample preparer.
func (e *Executor) Preparer() Preparer { return e.prep }

// WithPreparer swaps the executor's preparer in place — the seam that
// lets a cache tier (internal/dscache) interpose on an
// already-constructed executor without rebuilding its pools. The
// replacement must be bit-identical to the original for equal seeds
// (the dscache preparers are, by construction). Swap before the
// executor serves traffic: swapping concurrently with an in-flight
// batch races. Returns e for chaining.
func (e *Executor) WithPreparer(p Preparer) *Executor {
	if p != nil {
		e.prep = p
	}
	return e
}

// OutputStats reports the output buffer pools' aggregate reuse
// counters; News ≈ Gets means nobody is calling Recycle.
func (e *Executor) OutputStats() memframe.Stats { return e.out.Stats() }

// WithMetrics attaches a registry: every subsequent batch reports
// samples prepared and per-sample latency quantiles under
// "dataprep.executor.*", and the fetch→prepare pipeline reports
// per-stage telemetry under "pipeline.dataprep.*". Attach before use;
// returns e for chaining.
func (e *Executor) WithMetrics(reg *metrics.Registry) *Executor {
	e.reg = reg
	e.mSamples = reg.Counter("dataprep.executor.samples_prepared")
	e.mPerSample = reg.Histogram("dataprep.executor.ns_per_sample")
	e.mBatches = reg.Counter("dataprep.executor.batches_prepared")
	return e
}

// PrepareBatch prepares the keyed objects from the store for the given
// epoch, preserving key order in the result. The first storage or
// pipeline error is returned (with partial results discarded).
func (e *Executor) PrepareBatch(store *storage.Store, keys []string, epoch int) ([]Prepared, error) {
	return e.PrepareBatchContext(context.Background(), store, keys, epoch)
}

// PrepareOne prepares a single keyed sample on the host path with an
// explicit dataset seed. It is the degraded-mode entry point: when a
// prep pool has ejected every device, fpga.Cluster falls back here
// sample by sample, and because the augmentation seed depends only on
// (dataset seed, key, epoch) the result is bit-identical to what any
// pooled device would have produced.
func (e *Executor) PrepareOne(ctx context.Context, store *storage.Store, key string, datasetSeed int64, epoch int) (Prepared, error) {
	obj, err := store.GetContext(ctx, key)
	if err != nil {
		return Prepared{}, fmt.Errorf("dataprep: sample %q: %w", key, err)
	}
	p := e.prepareSample(obj, SampleSeed(datasetSeed, key, epoch))
	if p.Err != nil {
		return Prepared{}, fmt.Errorf("dataprep: sample %q: %w", p.Key, p.Err)
	}
	e.mSamples.Inc()
	return p, nil
}

// PrepareBatchContext is PrepareBatch with cancellation: the first
// error — or ctx being cancelled — stops the fetch and prepare stages
// and drains the pipeline before returning.
func (e *Executor) PrepareBatchContext(ctx context.Context, store *storage.Store, keys []string, epoch int) ([]Prepared, error) {
	fetch := pipeline.NewStage("fetch", 1, e.workers,
		func(ctx context.Context, i int) (storage.Object, error) {
			obj, err := store.GetContext(ctx, keys[i])
			if err != nil {
				return storage.Object{}, fmt.Errorf("dataprep: sample %q: %w", keys[i], err)
			}
			return obj, nil
		})
	prep := pipeline.NewStage("prepare", e.workers, e.workers,
		func(_ context.Context, obj storage.Object) (Prepared, error) {
			p := e.prepareSample(obj, SampleSeed(e.datasetSeed, obj.Key, epoch))
			if p.Err != nil {
				return Prepared{}, fmt.Errorf("dataprep: sample %q: %w", p.Key, p.Err)
			}
			return p, nil
		})
	pl, err := pipeline.New("dataprep", fetch, prep)
	if err != nil {
		return nil, err
	}
	// A cancelled batch strands prepared samples in the pipeline; their
	// pooled output buffers must flow back or the working set leaks one
	// batch per cancellation.
	pl.WithDiscard(func(v any) {
		if p, ok := v.(Prepared); ok {
			Recycle(p)
		}
	})
	start := time.Now()
	out, err := pipeline.Drain[Prepared](ctx, pl.WithMetrics(e.reg), 0, len(keys))
	if err != nil {
		return nil, err
	}
	if n := len(out); n > 0 {
		e.mSamples.Add(int64(n))
		e.mBatches.Inc()
		e.mPerSample.Observe(float64(time.Since(start).Nanoseconds()) / float64(n))
	}
	return out, nil
}
