package dsp

import (
	"math"
	"sync"
)

// This file holds the front-end's reusable contexts. The immutable
// tables — FFT plans, real-input unpack twiddles, Hann windows, Mel
// filterbanks — are built once per process and shared through the keyed
// caches below; MelPlan adds the per-worker scratch and the *Into entry
// point that writes into a caller-provided destination (the dsp layer
// of the zero-allocation sample path, DESIGN.md §12). The one-shot
// functions (FFT, PowerSTFT, LogMelSpectrogram) are thin wrappers over
// the same plans.

// --- global table caches ------------------------------------------------

var (
	planMu   sync.RWMutex
	fftPlans = map[int]*FFTPlan{}
	realFFTs = map[int]*realFFT{}
	windows  = map[int][]float64{}
	melFBs   = map[melFBKey]*MelFilterbank{}
)

type melFBKey struct {
	cfg  MelConfig
	bins int
}

// cached returns m[key], building it on first use. Tables are read-only
// once published and the first one published wins a race, so every
// caller shares one copy; callers must not mutate the result.
func cached[K comparable, V any](m map[K]V, key K, build func() (V, error)) (V, error) {
	planMu.RLock()
	v, ok := m[key]
	planMu.RUnlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	planMu.Lock()
	defer planMu.Unlock()
	if prev, ok := m[key]; ok {
		return prev, nil
	}
	m[key] = v
	return v, nil
}

func fftPlanFor(n int) (*FFTPlan, error) {
	return cached(fftPlans, n, func() (*FFTPlan, error) { return NewFFTPlan(n) })
}

func realFFTFor(n int) (*realFFT, error) {
	return cached(realFFTs, n, func() (*realFFT, error) { return newRealFFT(n) })
}

func hannWindowFor(n int) []float64 {
	w, _ := cached(windows, n, func() ([]float64, error) { return HannWindow(n), nil })
	return w
}

func melFilterbankFor(cfg MelConfig, bins int) (*MelFilterbank, error) {
	return cached(melFBs, melFBKey{cfg: cfg, bins: bins}, func() (*MelFilterbank, error) {
		return NewMelFilterbank(cfg.NumMels, bins, cfg.STFT.SampleRate, cfg.FMin, cfg.FMax)
	})
}

// --- MelPlan ------------------------------------------------------------

// MelPlan is a reusable waveform→log-Mel context: shared immutable
// tables (Hann window, real-input FFT, Mel filterbank) plus one frame's
// worth of scratch. A MelPlan is NOT safe for concurrent use — hold one
// per worker.
type MelPlan struct {
	cfg    MelConfig
	eps    float64
	window []float64
	rfft   *realFFT       // nil when the FFT length is 1
	fb     *MelFilterbank // nil: rows are power spectra (PowerSTFT)
	bins   int
	z      []complex128 // one packed frame, len fftLen/2
	power  []float64    // one power-spectrum row, len bins
}

// newSTFTPlan builds the framing half of a plan: every table and
// scratch buffer except the Mel stage.
func newSTFTPlan(cfg STFTConfig) (*MelPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fftLen := NextPow2(cfg.WindowSize)
	p := &MelPlan{
		cfg:    MelConfig{STFT: cfg},
		window: hannWindowFor(cfg.WindowSize),
		bins:   fftLen/2 + 1,
		z:      make([]complex128, fftLen/2),
	}
	if fftLen > 1 {
		p.rfft, _ = realFFTFor(fftLen) // fftLen is a power of two ≥ 2
	}
	return p, nil
}

// NewMelPlan validates cfg and looks up every table the front-end
// needs.
func NewMelPlan(cfg MelConfig) (*MelPlan, error) {
	p, err := newSTFTPlan(cfg.STFT)
	if err != nil {
		return nil, err
	}
	if p.fb, err = melFilterbankFor(cfg, p.bins); err != nil {
		return nil, err
	}
	p.cfg, p.eps, p.power = cfg, cfg.LogEps, make([]float64, p.bins)
	if p.eps <= 0 {
		p.eps = 1e-10
	}
	return p, nil
}

// LogMelInto runs the full front-end (Hann STFT → power spectrum → Mel
// filterbank → log compression) into dst, reusing dst's Data capacity.
// Each frame is finished before the next is read, so no frames × bins
// intermediate exists.
func (p *MelPlan) LogMelInto(dst *Spectrogram, signal []float64) error {
	dst.Reset(p.cfg.STFT.NumFrames(len(signal)), p.fb.NumMels)
	p.frames(dst, signal)
	return nil
}

// frames is the module's one STFT framing loop: frame t of signal
// becomes row t of dst — its power spectrum when the plan has no
// filterbank, log(Mel energies + eps) otherwise.
func (p *MelPlan) frames(dst *Spectrogram, signal []float64) {
	hop := p.cfg.STFT.HopSize
	for t := 0; t < dst.Frames; t++ {
		row := dst.Data[t*dst.Bins : (t+1)*dst.Bins]
		if p.fb == nil {
			p.powerRow(row, signal[t*hop:])
			continue
		}
		p.powerRow(p.power, signal[t*hop:])
		p.fb.applyRow(row, p.power)
		for m, v := range row {
			row[m] = math.Log(v + p.eps)
		}
	}
}

// powerRow writes the power spectrum of the Hann-windowed frame at the
// head of signal to dst: window and pack sample pairs straight to their
// bit-reversed positions (the zero pad is the cleared tail of z), then
// transform and unpack.
func (p *MelPlan) powerRow(dst, signal []float64) {
	w := p.window
	if p.rfft == nil {
		v := signal[0] * w[0]
		dst[0] = v * v
		return
	}
	z, rev := p.z, p.rfft.half.rev
	x := signal[:len(w)]
	i := 0
	for ; i+1 < len(x); i += 2 {
		z[rev[i/2]] = complex(x[i]*w[i], x[i+1]*w[i+1])
	}
	if i < len(x) {
		z[rev[i/2]] = complex(x[i]*w[i], 0)
		i += 2
	}
	for _, j := range rev[i/2:] {
		z[j] = 0
	}
	p.rfft.power(dst, z)
}
