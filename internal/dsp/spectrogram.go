package dsp

import (
	"fmt"
	"math"
)

// STFTConfig describes short-time Fourier transform framing. Defaults
// (via DefaultSTFTConfig) follow common speech front-ends: 25 ms windows,
// 10 ms hop, 16 kHz sample rate.
type STFTConfig struct {
	SampleRate int // Hz
	WindowSize int // samples per frame; FFT length is NextPow2(WindowSize)
	HopSize    int // samples between frame starts
}

// DefaultSTFTConfig returns the standard 16 kHz / 25 ms / 10 ms speech
// front-end configuration.
func DefaultSTFTConfig() STFTConfig {
	return STFTConfig{SampleRate: 16000, WindowSize: 400, HopSize: 160}
}

// Validate reports the first configuration error, or nil.
func (c STFTConfig) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("dsp: sample rate %d must be positive", c.SampleRate)
	}
	if c.WindowSize <= 0 {
		return fmt.Errorf("dsp: window size %d must be positive", c.WindowSize)
	}
	if c.HopSize <= 0 {
		return fmt.Errorf("dsp: hop size %d must be positive", c.HopSize)
	}
	return nil
}

// NumFrames returns how many full frames fit in n samples.
func (c STFTConfig) NumFrames(n int) int {
	if n < c.WindowSize {
		return 0
	}
	return 1 + (n-c.WindowSize)/c.HopSize
}

// Spectrogram is a time×frequency matrix stored row-major: Data[t*Bins+f].
type Spectrogram struct {
	Frames int
	Bins   int
	Data   []float64
}

// Set stores v at frame t, bin f.
func (s *Spectrogram) Set(t, f int, v float64) { s.Data[t*s.Bins+f] = v }

// NewSpectrogram allocates a zeroed frames×bins spectrogram.
func NewSpectrogram(frames, bins int) *Spectrogram {
	return &Spectrogram{Frames: frames, Bins: bins, Data: make([]float64, frames*bins)}
}

// Reset reshapes s to frames×bins, reusing Data's capacity when it
// fits. Like NewSpectrogram, the cells are zeroed.
func (s *Spectrogram) Reset(frames, bins int) {
	s.Frames, s.Bins = frames, bins
	n := frames * bins
	if cap(s.Data) < n {
		s.Data = make([]float64, n)
		return
	}
	s.Data = s.Data[:n]
	clear(s.Data)
}

// PowerSTFT computes the power spectrogram |STFT|² of signal with Hann
// windowing. It returns an empty (0-frame) spectrogram for signals
// shorter than one window.
func PowerSTFT(signal []float64, cfg STFTConfig) (*Spectrogram, error) {
	p, err := newSTFTPlan(cfg)
	if err != nil {
		return nil, err
	}
	out := NewSpectrogram(cfg.NumFrames(len(signal)), p.bins)
	p.frames(out, signal)
	return out, nil
}

// HzToMel converts frequency in Hz to the Mel scale (HTK formula).
func HzToMel(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// MelToHz converts a Mel value back to Hz.
func MelToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// MelFilterbank is a bank of triangular filters mapping FFT bins to Mel
// channels. Filters[m][f] is the weight of bin f in channel m; a
// triangle covers a few bins of the row, so the bank also records each
// channel's non-zero range and sums only that. NewMelFilterbank fills
// the ranges in; a bank assembled field by field sums whole rows. Treat
// a bank as read-only.
type MelFilterbank struct {
	NumMels int
	NumBins int
	Filters [][]float64
	lo, hi  []int // Filters[m][f] != 0 only for lo[m] <= f < hi[m]
}

// NewMelFilterbank constructs numMels triangular filters spanning
// [fMin, fMax] Hz for spectra with numBins bins at the given sample rate.
func NewMelFilterbank(numMels, numBins, sampleRate int, fMin, fMax float64) (*MelFilterbank, error) {
	if numMels <= 0 || numBins <= 1 || sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: invalid filterbank shape mels=%d bins=%d rate=%d", numMels, numBins, sampleRate)
	}
	if fMax <= fMin || fMin < 0 {
		return nil, fmt.Errorf("dsp: invalid filterbank range [%g,%g]", fMin, fMax)
	}
	nyquist := float64(sampleRate) / 2
	if fMax > nyquist {
		fMax = nyquist
	}
	// numMels+2 equally spaced points on the Mel scale define the
	// triangle corners.
	melMin, melMax := HzToMel(fMin), HzToMel(fMax)
	points := make([]float64, numMels+2)
	// fftLen = 2*(numBins-1); bin f covers frequency f*rate/fftLen.
	fftLen := 2 * (numBins - 1)
	for i := range points {
		mel := melMin + (melMax-melMin)*float64(i)/float64(numMels+1)
		hz := MelToHz(mel)
		points[i] = hz * float64(fftLen) / float64(sampleRate)
	}
	fb := &MelFilterbank{NumMels: numMels, NumBins: numBins, Filters: make([][]float64, numMels),
		lo: make([]int, numMels), hi: make([]int, numMels)}
	for m := 0; m < numMels; m++ {
		left, center, right := points[m], points[m+1], points[m+2]
		row := make([]float64, numBins)
		for f := 0; f < numBins; f++ {
			x := float64(f)
			switch {
			case x <= left || x >= right:
				// outside the triangle
			case x <= center:
				if center > left {
					row[f] = (x - left) / (center - left)
				}
			default:
				if right > center {
					row[f] = (right - x) / (right - center)
				}
			}
			if row[f] != 0 {
				if fb.hi[m] == 0 {
					fb.lo[m] = f
				}
				fb.hi[m] = f + 1
			}
		}
		fb.Filters[m] = row
	}
	return fb, nil
}

// Apply maps a power spectrogram through the filterbank, producing a
// frames×numMels Mel spectrogram.
func (fb *MelFilterbank) Apply(s *Spectrogram) (*Spectrogram, error) {
	out := new(Spectrogram)
	if err := fb.ApplyInto(out, s); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInto maps a power spectrogram through the filterbank into dst,
// reusing dst's Data capacity. dst must not alias s.
func (fb *MelFilterbank) ApplyInto(dst *Spectrogram, s *Spectrogram) error {
	if s.Bins != fb.NumBins {
		return fmt.Errorf("dsp: spectrogram has %d bins, filterbank expects %d", s.Bins, fb.NumBins)
	}
	dst.Reset(s.Frames, fb.NumMels)
	for t := 0; t < s.Frames; t++ {
		fb.applyRow(dst.Data[t*fb.NumMels:(t+1)*fb.NumMels], s.Data[t*s.Bins:(t+1)*s.Bins])
	}
	return nil
}

// applyRow writes the Mel energies of one power-spectrum row to dst,
// summing each channel's non-zero range in ascending bin order — the
// order, and therefore the bits, of a dense loop that skips zeros.
func (fb *MelFilterbank) applyRow(dst, power []float64) {
	ranged := len(fb.lo) == len(fb.Filters)
	for m, filt := range fb.Filters {
		lo, hi := 0, len(filt)
		if ranged {
			lo, hi = fb.lo[m], fb.hi[m]
		}
		w, x := filt[lo:hi], power[lo:hi]
		var acc float64
		for f, wf := range w {
			acc += wf * x[f]
		}
		dst[m] = acc
	}
}

// LogCompress applies log(x + eps) in place, the final step of a log-Mel
// front-end.
func LogCompress(s *Spectrogram, eps float64) {
	for i, v := range s.Data {
		s.Data[i] = math.Log(v + eps)
	}
}

// MelConfig bundles the full waveform→log-Mel pipeline parameters.
type MelConfig struct {
	STFT    STFTConfig
	NumMels int
	FMin    float64
	FMax    float64
	LogEps  float64
}

// DefaultMelConfig returns an 80-channel log-Mel front-end over the
// default STFT framing — the feature set used by the paper's speech
// workloads (Mel spectrogram, Section II-A).
func DefaultMelConfig() MelConfig {
	return MelConfig{STFT: DefaultSTFTConfig(), NumMels: 80, FMin: 20, FMax: 7600, LogEps: 1e-10}
}

// LogMelSpectrogram runs the full front-end: Hann STFT → power spectrum →
// Mel filterbank → log compression. It is NewMelPlan + LogMelInto into
// a fresh spectrogram; hot paths hold the MelPlan and reuse the
// destination.
func LogMelSpectrogram(signal []float64, cfg MelConfig) (*Spectrogram, error) {
	p, err := NewMelPlan(cfg)
	if err != nil {
		return nil, err
	}
	out := new(Spectrogram)
	return out, p.LogMelInto(out, signal)
}
