package dsp

import (
	"fmt"
	"math"
	"math/rand"

	"trainbox/internal/gauss"
)

// TimeMask zeroes (to fillValue) a random contiguous span of at most
// maxWidth frames — SpecAugment's time masking. A nil rng or
// non-positive maxWidth leaves s unchanged. It returns the masked span
// [start, start+width) for verification.
func TimeMask(s *Spectrogram, maxWidth int, fillValue float64, rng *rand.Rand) (start, width int) {
	if rng == nil || maxWidth <= 0 || s.Frames == 0 {
		return 0, 0
	}
	if maxWidth > s.Frames {
		maxWidth = s.Frames
	}
	width = 1 + rng.Intn(maxWidth)
	start = rng.Intn(s.Frames - width + 1)
	for t := start; t < start+width; t++ {
		for f := 0; f < s.Bins; f++ {
			s.Set(t, f, fillValue)
		}
	}
	return start, width
}

// FreqMask zeroes (to fillValue) a random contiguous span of at most
// maxWidth Mel channels — SpecAugment's frequency masking. It returns the
// masked span for verification.
func FreqMask(s *Spectrogram, maxWidth int, fillValue float64, rng *rand.Rand) (start, width int) {
	if rng == nil || maxWidth <= 0 || s.Bins == 0 {
		return 0, 0
	}
	if maxWidth > s.Bins {
		maxWidth = s.Bins
	}
	width = 1 + rng.Intn(maxWidth)
	start = rng.Intn(s.Bins - width + 1)
	for t := 0; t < s.Frames; t++ {
		for f := start; f < start+width; f++ {
			s.Set(t, f, fillValue)
		}
	}
	return start, width
}

// AddNoise adds zero-mean Gaussian noise with the given standard
// deviation to every sample of signal, in place — the paper's example
// audio augmentation ("add some noise into sound"). The noise is
// gauss's 4,096-level quantized Gaussian (σ·q for a table quantile q,
// tails at ±3.67σ), and each call draws one Uint64 from rng. A nil rng
// or a stddev that is not positive (NaN included) leaves signal as it
// is.
func AddNoise(signal []float64, stddev float64, rng *rand.Rand) {
	if rng == nil || !(stddev > 0) {
		return
	}
	st := gauss.NewStream(rng)
	const mask = gauss.Levels - 1
	for len(signal) >= gauss.PerWord {
		var w uint64
		w, st = st.Next()
		s := signal[:gauss.PerWord:gauss.PerWord]
		s[0] += stddev * gauss.Table[w&mask]
		s[1] += stddev * gauss.Table[w>>gauss.Bits&mask]
		s[2] += stddev * gauss.Table[w>>(2*gauss.Bits)&mask]
		s[3] += stddev * gauss.Table[w>>(3*gauss.Bits)&mask]
		s[4] += stddev * gauss.Table[w>>(4*gauss.Bits)&mask]
		signal = signal[gauss.PerWord:]
	}
	if len(signal) > 0 {
		w, _ := st.Next()
		for i := range signal {
			signal[i] += stddev * gauss.Table[w&mask]
			w >>= gauss.Bits
		}
	}
}

// Normalize standardizes the spectrogram in place to zero mean and unit
// variance over all cells (the "Norm" engine in Table III). Constant
// inputs become all zeros. It returns the pre-normalization mean and
// standard deviation.
func Normalize(s *Spectrogram) (mean, std float64) {
	n := len(s.Data)
	if n == 0 {
		return 0, 0
	}
	for _, v := range s.Data {
		mean += v
	}
	mean /= float64(n)
	for _, v := range s.Data {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(n))
	if std == 0 {
		for i := range s.Data {
			s.Data[i] = 0
		}
		return mean, 0
	}
	for i, v := range s.Data {
		s.Data[i] = (v - mean) / std
	}
	return mean, std
}

// SynthConfig controls synthetic audio generation — the Librispeech
// stand-in. Streams are sums of a few sinusoid "formants" with optional
// noise floor, deterministic per seed.
type SynthConfig struct {
	SampleRate int     // Hz
	Duration   float64 // seconds
	NumTones   int     // sinusoid components
	NoiseStd   float64 // Gaussian noise floor
}

// DefaultSynthConfig matches the paper's dataset statistics: 6.96 s
// average Librispeech utterances at 16 kHz.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{SampleRate: 16000, Duration: 6.96, NumTones: 4, NoiseStd: 0.01}
}

// SynthesizeAudio generates a deterministic pseudo-speech waveform for
// the given seed. Values lie in roughly [-1, 1].
func SynthesizeAudio(cfg SynthConfig, seed int64) ([]float64, error) {
	if cfg.SampleRate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("dsp: invalid synth config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(float64(cfg.SampleRate) * cfg.Duration)
	signal := make([]float64, n)
	tones := cfg.NumTones
	if tones <= 0 {
		tones = 1
	}
	type tone struct{ freq, amp, phase float64 }
	ts := make([]tone, tones)
	for i := range ts {
		ts[i] = tone{
			freq:  80 + rng.Float64()*3000, // speech-band formants
			amp:   0.2 + rng.Float64()*0.6,
			phase: rng.Float64() * 2 * math.Pi,
		}
	}
	var ampSum float64
	for _, tn := range ts {
		ampSum += tn.amp
	}
	for i := range signal {
		t := float64(i) / float64(cfg.SampleRate)
		var v float64
		for _, tn := range ts {
			v += tn.amp * math.Sin(2*math.Pi*tn.freq*t+tn.phase)
		}
		signal[i] = v / ampSum
	}
	AddNoise(signal, cfg.NoiseStd, rng)
	return signal, nil
}

// PCM16Encode quantizes a [-1,1] float signal to interleaved little-endian
// int16 PCM bytes — the stored on-SSD format of audio datasets, used to
// size storage reads.
func PCM16Encode(signal []float64) []byte {
	out := make([]byte, 2*len(signal))
	for i, v := range signal {
		if v > 1 {
			v = 1
		} else if v < -1 {
			v = -1
		}
		s := int16(v * 32767)
		out[2*i] = byte(uint16(s))
		out[2*i+1] = byte(uint16(s) >> 8)
	}
	return out
}

// PCM16Decode reverses PCM16Encode. Odd-length input returns an error.
func PCM16Decode(b []byte) ([]float64, error) {
	return PCM16DecodeInto(nil, b)
}

// PCM16DecodeInto decodes into dst's capacity (growing it when needed)
// and returns the resized slice — the reuse seam for the scratch-based
// prepare path. Odd-length input returns an error.
func PCM16DecodeInto(dst []float64, b []byte) ([]float64, error) {
	if len(b)%2 != 0 {
		return nil, fmt.Errorf("dsp: PCM16 payload has odd length %d", len(b))
	}
	n := len(b) / 2
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		s := int16(uint16(b[2*i]) | uint16(b[2*i+1])<<8)
		dst[i] = float64(s) / 32767
	}
	return dst, nil
}
