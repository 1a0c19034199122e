package dsp

import (
	"fmt"
	"math"
)

// This file extends the audio front-end with the classic MFCC chain
// (pre-emphasis, DCT-II over log-Mel energies, delta features) — the
// "emerging complex data preparation algorithms" direction the paper
// argues will make data preparation even heavier (Sections I and VII).

// PreEmphasis applies the first-order high-pass filter
// y[n] = x[n] − α·x[n−1] in place (α typically 0.97). It boosts the
// high-frequency formants before the STFT.
func PreEmphasis(signal []float64, alpha float64) {
	if len(signal) == 0 {
		return
	}
	prev := signal[0]
	for i := 1; i < len(signal); i++ {
		cur := signal[i]
		signal[i] = cur - alpha*prev
		prev = cur
	}
}

// DCT2 computes the orthonormal type-II discrete cosine transform of x.
func DCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		var sum float64
		for t := 0; t < n; t++ {
			sum += x[t] * math.Cos(math.Pi/float64(n)*(float64(t)+0.5)*float64(k))
		}
		if k == 0 {
			out[k] = sum * scale0
		} else {
			out[k] = sum * scale
		}
	}
	return out
}

// IDCT2 inverts the orthonormal DCT-II (i.e. applies DCT-III).
func IDCT2(c []float64) []float64 {
	n := len(c)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for t := 0; t < n; t++ {
		sum := c[0] * scale0
		for k := 1; k < n; k++ {
			sum += c[k] * scale * math.Cos(math.Pi/float64(n)*(float64(t)+0.5)*float64(k))
		}
		out[t] = sum
	}
	return out
}

// MFCCConfig parameterizes the MFCC front-end.
type MFCCConfig struct {
	Mel MelConfig
	// NumCoeffs is the number of cepstral coefficients kept per frame
	// (≤ NumMels).
	NumCoeffs int
	// PreEmphasisAlpha is the pre-emphasis coefficient (0 disables).
	PreEmphasisAlpha float64
}

// DefaultMFCCConfig returns the conventional 13-coefficient front-end.
func DefaultMFCCConfig() MFCCConfig {
	return MFCCConfig{Mel: DefaultMelConfig(), NumCoeffs: 13, PreEmphasisAlpha: 0.97}
}

// MFCC computes Mel-frequency cepstral coefficients: pre-emphasis →
// log-Mel spectrogram → per-frame DCT-II → keep the first NumCoeffs.
// The result is frames × NumCoeffs.
func MFCC(signal []float64, cfg MFCCConfig) (*Spectrogram, error) {
	p, err := NewMFCCPlan(cfg)
	if err != nil {
		return nil, err
	}
	out := new(Spectrogram)
	return out, p.MFCCInto(out, signal)
}

// Deltas computes first-order delta features with a ±width regression
// window: d[t] = Σ_{k=1..w} k·(x[t+k] − x[t−k]) / (2·Σ k²), with edge
// frames clamped. The result has the same shape as the input.
func Deltas(s *Spectrogram, width int) (*Spectrogram, error) {
	if width < 1 {
		return nil, fmt.Errorf("dsp: delta width %d must be ≥ 1", width)
	}
	out := NewSpectrogram(s.Frames, s.Bins)
	var denom float64
	for k := 1; k <= width; k++ {
		denom += float64(k * k)
	}
	denom *= 2
	clamp := func(t int) int {
		if t < 0 {
			return 0
		}
		if t >= s.Frames {
			return s.Frames - 1
		}
		return t
	}
	for t := 0; t < s.Frames; t++ {
		for f := 0; f < s.Bins; f++ {
			var num float64
			for k := 1; k <= width; k++ {
				num += float64(k) * (s.At(clamp(t+k), f) - s.At(clamp(t-k), f))
			}
			out.Set(t, f, num/denom)
		}
	}
	return out, nil
}
