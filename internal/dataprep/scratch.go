package dataprep

import (
	"math/rand"

	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
	"trainbox/internal/memframe"
	"trainbox/internal/storage"
)

// Scratch is one worker's reusable working set for the per-sample
// decode→augment→cast path: crop and mirror images, the PCM signal
// buffer, the per-sample random source and a cached dsp.MelPlan. The
// Prepare*Scratch functions thread it through every kernel so
// steady-state preparation recycles one bounded working set instead of
// allocating per sample (DESIGN.md §12).
//
// A Scratch is NOT safe for concurrent use — hold one per goroutine
// (dataprep.Executor and fpga.P2PHandler each keep a pipeline.Pool of
// them). The intermediate buffers live for exactly one Prepare call;
// only the returned tensor/spectrogram escapes. When the Scratch
// carries an output Set those outputs draw from it, and a sample
// prepared through (*Scratch).Prepare remembers that Set, so Recycle
// hands its buffer back wherever it was produced.
type Scratch struct {
	imgA imgproc.Image // mirror destination
	imgB imgproc.Image // crop destination: the window decode's, or the crop's
	sig  []float64     // PCM decode buffer
	src  seededSource  // rng's source
	rng  *rand.Rand    // reseeded per sample; nil until the first

	melCfg dsp.MelConfig // config mel was built for
	mel    *dsp.MelPlan  // lazily (re)built when the config changes

	// out supplies output tensor/spectrogram buffers; nil means outputs
	// are freshly allocated (and never recycled) — the safe default for
	// callers that hold results indefinitely, e.g. oracle tests.
	out *memframe.Set
}

// NewScratch returns a Scratch whose outputs are freshly allocated.
func NewScratch() *Scratch { return &Scratch{} }

// NewScratchWithOutput returns a Scratch drawing output buffers from
// out. Callers own the returned samples' buffers until they hand them
// back with Recycle.
func NewScratchWithOutput(out *memframe.Set) *Scratch { return &Scratch{out: out} }

// Prepare runs prep on obj in s's buffers and stamps the sample with
// s's output Set, so Recycle returns its buffer to the pool it came
// from. Every pooled producer prepares through it: the host executor,
// the FPGA P2P handler and whatever Preparer either one carries. A
// sample from a Scratch without an output Set is fresh and Recycle
// leaves it alone.
func (s *Scratch) Prepare(prep Preparer, obj storage.Object, seed int64) Prepared {
	p := prep.Prepare(obj, seed, s)
	p.owner = s.out
	return p
}

// getF32 draws an output float32 buffer from the output set, or
// allocates when the scratch has none.
func (s *Scratch) getF32(n int) []float32 {
	if s == nil || s.out == nil {
		return make([]float32, n)
	}
	return s.out.F32.Get(n)
}

// getF64 draws an output float64 buffer from the output set.
func (s *Scratch) getF64(n int) []float64 {
	if s == nil || s.out == nil {
		return make([]float64, n)
	}
	return s.out.F64.Get(n)
}

// rand returns s's random source seeded with seed: the sequence
// rand.New(rand.NewSource(seed)) gives, without allocating one per
// sample or filling a register the sample never reads (seededSource).
func (s *Scratch) rand(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(&s.src)
	}
	s.rng.Seed(seed)
	return s.rng
}

// melPlan returns the cached MelPlan for cfg, rebuilding it when the
// config changed since the last call.
func (s *Scratch) melPlan(cfg dsp.MelConfig) (*dsp.MelPlan, error) {
	if s.mel == nil || s.melCfg != cfg {
		p, err := dsp.NewMelPlan(cfg)
		if err != nil {
			return nil, err
		}
		s.mel, s.melCfg = p, cfg
	}
	return s.mel, nil
}

// PrepareImageScratch runs the full image pipeline on stored JPEG
// bytes, crop first: it reads the frame size from the header, places
// the crop with the draws PrepareImageDecoded makes, decodes only that
// window (imgproc.DecodeJPEGCropInto), then mirrors, noises and casts
// it in s's buffers. The returned tensor's Data comes from s's output
// set (caller-owned until recycled). A nil s uses a throwaway working
// set, so the caller owns the result outright. The output does not
// depend on s.
func PrepareImageScratch(jpegData []byte, cfg ImageConfig, seed int64, s *Scratch) (*imgproc.Tensor, error) {
	if s == nil {
		s = NewScratch()
	}
	rng := s.rand(seed)
	w, h, err := imgproc.JPEGFrameSize(jpegData)
	if err != nil {
		return nil, err
	}
	x, y, err := cropOrigin(w, h, cfg, rng)
	if err != nil {
		return nil, err
	}
	if err := imgproc.DecodeJPEGCropInto(&s.imgB, jpegData, x, y, cfg.CropW, cfg.CropH); err != nil {
		return nil, err
	}
	return imageTail(cfg, rng, s)
}

// PrepareImageDecoded runs the augment+cast tail of the image pipeline
// on an already-decoded image — the split that lets a cache tier
// (internal/dscache) pay the JPEG decode once and replay only this
// cheap, seeded part per consumer. src is read-only and may be shared
// across goroutines (the crop copies its pixels out before any buffer
// is written). The output is bit-identical to PrepareImageScratch on
// the encoded bytes for equal seeds: both place the crop through
// cropOrigin, and the window decode's pixels are the full decode's.
func PrepareImageDecoded(src *imgproc.Image, cfg ImageConfig, seed int64, s *Scratch) (*imgproc.Tensor, error) {
	if s == nil {
		s = NewScratch()
	}
	rng := s.rand(seed)
	x, y, err := cropOrigin(src.W, src.H, cfg, rng)
	if err != nil {
		return nil, err
	}
	if err := imgproc.CropInto(&s.imgB, src, x, y, cfg.CropW, cfg.CropH); err != nil {
		return nil, err
	}
	return imageTail(cfg, rng, s)
}

// cropOrigin places cfg's crop in a w×h frame: uniformly at random
// from rng when cfg augments, centred when it does not.
func cropOrigin(w, h int, cfg ImageConfig, rng *rand.Rand) (x, y int, err error) {
	if !cfg.Augment {
		rng = nil
	}
	return imgproc.CropOrigin(w, h, cfg.CropW, cfg.CropH, rng)
}

// imageTail is the shared post-crop image path on s.imgB, continuing
// rng's sequence after the crop draws: mirror → noise → cast.
func imageTail(cfg ImageConfig, rng *rand.Rand, s *Scratch) (*imgproc.Tensor, error) {
	cur := &s.imgB
	if cfg.Augment && rng.Float64() < cfg.MirrorProb {
		imgproc.MirrorInto(&s.imgA, cur)
		cur = &s.imgA
	}
	if cfg.Augment && cfg.NoiseStd > 0 {
		imgproc.GaussianNoiseInto(cur, cur, cfg.NoiseStd, rng)
	}
	t := &imgproc.Tensor{Data: s.getF32(3 * cur.H * cur.W)}
	if err := imgproc.ToTensorInto(t, cur, cfg.Mean, cfg.Std); err != nil {
		if s.out != nil {
			s.out.F32.Put(t.Data)
		}
		return nil, err
	}
	return t, nil
}

// PrepareAudioScratch runs the full audio pipeline on stored PCM16
// bytes: PCM decode and the log-Mel front-end run in s's buffers (the
// MelPlan is cached across calls), and the returned spectrogram's Data
// comes from s's output set. A nil s uses a throwaway working set. The
// output does not depend on s.
func PrepareAudioScratch(pcmData []byte, cfg AudioConfig, seed int64, s *Scratch) (*dsp.Spectrogram, error) {
	if s == nil {
		s = NewScratch()
	}
	var err error
	s.sig, err = dsp.PCM16DecodeInto(s.sig, pcmData)
	if err != nil {
		return nil, err
	}
	return prepareAudioTail(cfg, seed, s)
}

// PrepareAudioDecoded runs the augment+front-end tail of the audio
// pipeline on an already-decoded PCM signal — the split that lets a
// cache tier (internal/dscache) pay the PCM decode once per key. sig is
// read-only and may be shared across goroutines: noise augmentation
// mutates the signal in place, so the tail runs on a scratch copy. The
// output is bit-identical to PrepareAudioScratch on the encoded signal
// for equal seeds because PCM16 decoding is exact.
func PrepareAudioDecoded(sig []float64, cfg AudioConfig, seed int64, s *Scratch) (*dsp.Spectrogram, error) {
	if s == nil {
		s = NewScratch()
	}
	s.sig = append(s.sig[:0], sig...)
	return prepareAudioTail(cfg, seed, s)
}

// prepareAudioTail is the shared post-decode audio path operating on
// s.sig (which it may mutate): noise augment → log-Mel → SpecAugment →
// normalize.
func prepareAudioTail(cfg AudioConfig, seed int64, s *Scratch) (*dsp.Spectrogram, error) {
	rng := s.rand(seed)
	if cfg.Augment && cfg.NoiseStd > 0 {
		dsp.AddNoise(s.sig, cfg.NoiseStd, rng)
	}
	plan, err := s.melPlan(cfg.Mel)
	if err != nil {
		return nil, err
	}
	frames := cfg.Mel.STFT.NumFrames(len(s.sig))
	mel := &dsp.Spectrogram{Data: s.getF64(frames * cfg.Mel.NumMels)}
	if err := plan.LogMelInto(mel, s.sig); err != nil {
		if s.out != nil {
			s.out.F64.Put(mel.Data)
		}
		return nil, err
	}
	if cfg.Augment {
		if cfg.TimeMaskWidth > 0 {
			dsp.TimeMask(mel, cfg.TimeMaskWidth, 0, rng)
		}
		if cfg.FreqMaskWidth > 0 {
			dsp.FreqMask(mel, cfg.FreqMaskWidth, 0, rng)
		}
	}
	if cfg.Normalize {
		dsp.Normalize(mel)
	}
	return mel, nil
}
