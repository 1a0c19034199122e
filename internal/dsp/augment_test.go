package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeMaskZeroesExactSpan(t *testing.T) {
	s := NewSpectrogram(50, 8)
	for i := range s.Data {
		s.Data[i] = 1
	}
	rng := rand.New(rand.NewSource(3))
	start, width := TimeMask(s, 10, -5, rng)
	if width < 1 || width > 10 {
		t.Fatalf("width = %d", width)
	}
	for tt := 0; tt < s.Frames; tt++ {
		for f := 0; f < s.Bins; f++ {
			want := 1.0
			if tt >= start && tt < start+width {
				want = -5
			}
			if s.Data[tt*s.Bins+f] != want {
				t.Fatalf("cell (%d,%d) = %v, want %v", tt, f, s.Data[tt*s.Bins+f], want)
			}
		}
	}
}

func TestFreqMaskZeroesExactSpan(t *testing.T) {
	s := NewSpectrogram(20, 40)
	for i := range s.Data {
		s.Data[i] = 2
	}
	rng := rand.New(rand.NewSource(5))
	start, width := FreqMask(s, 7, 0, rng)
	for tt := 0; tt < s.Frames; tt++ {
		for f := 0; f < s.Bins; f++ {
			want := 2.0
			if f >= start && f < start+width {
				want = 0
			}
			if s.Data[tt*s.Bins+f] != want {
				t.Fatalf("cell (%d,%d) = %v, want %v", tt, f, s.Data[tt*s.Bins+f], want)
			}
		}
	}
}

func TestMasksNoopWithoutRNG(t *testing.T) {
	s := NewSpectrogram(5, 5)
	for i := range s.Data {
		s.Data[i] = 9
	}
	TimeMask(s, 3, 0, nil)
	FreqMask(s, 3, 0, nil)
	TimeMask(s, 0, 0, rand.New(rand.NewSource(1)))
	for _, v := range s.Data {
		if v != 9 {
			t.Fatal("noop mask modified data")
		}
	}
}

func TestMaskWidthClampedToDimension(t *testing.T) {
	s := NewSpectrogram(3, 3)
	rng := rand.New(rand.NewSource(1))
	_, w := TimeMask(s, 100, 0, rng)
	if w > 3 {
		t.Errorf("time mask width %d exceeds frames", w)
	}
	_, w = FreqMask(s, 100, 0, rng)
	if w > 3 {
		t.Errorf("freq mask width %d exceeds bins", w)
	}
}

func TestAddNoiseStatistics(t *testing.T) {
	sig := make([]float64, 200000)
	AddNoise(sig, 0.5, rand.New(rand.NewSource(11)))
	var mean, varAcc float64
	for _, v := range sig {
		mean += v
	}
	mean /= float64(len(sig))
	for _, v := range sig {
		varAcc += (v - mean) * (v - mean)
	}
	std := math.Sqrt(varAcc / float64(len(sig)))
	if math.Abs(mean) > 0.01 {
		t.Errorf("noise mean = %v, want ≈0", mean)
	}
	if math.Abs(std-0.5) > 0.01 {
		t.Errorf("noise std = %v, want ≈0.5", std)
	}
}

func TestAddNoiseNoop(t *testing.T) {
	sig := []float64{1, 2, 3}
	AddNoise(sig, 0, rand.New(rand.NewSource(1)))
	AddNoise(sig, 0.5, nil)
	if sig[0] != 1 || sig[1] != 2 || sig[2] != 3 {
		t.Error("noop AddNoise modified signal")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpectrogram(10, 10)
		for i := range s.Data {
			s.Data[i] = rng.NormFloat64()*3 + 7
		}
		Normalize(s)
		var mean float64
		for _, v := range s.Data {
			mean += v
		}
		mean /= float64(len(s.Data))
		var varAcc float64
		for _, v := range s.Data {
			varAcc += (v - mean) * (v - mean)
		}
		std := math.Sqrt(varAcc / float64(len(s.Data)))
		return math.Abs(mean) < 1e-9 && math.Abs(std-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeConstantInput(t *testing.T) {
	s := NewSpectrogram(4, 4)
	for i := range s.Data {
		s.Data[i] = 5
	}
	mean, std := Normalize(s)
	if mean != 5 || std != 0 {
		t.Errorf("mean=%v std=%v, want 5, 0", mean, std)
	}
	for _, v := range s.Data {
		if v != 0 {
			t.Fatal("constant input should normalize to zeros")
		}
	}
}

func TestNormalizeEmpty(t *testing.T) {
	s := NewSpectrogram(0, 0)
	if m, sd := Normalize(s); m != 0 || sd != 0 {
		t.Errorf("empty normalize = %v, %v", m, sd)
	}
}

func TestSynthesizeAudioShapeAndRange(t *testing.T) {
	cfg := DefaultSynthConfig()
	sig, err := SynthesizeAudio(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := int(float64(cfg.SampleRate) * cfg.Duration)
	if len(sig) != wantLen {
		t.Errorf("len = %d, want %d", len(sig), wantLen)
	}
	for i, v := range sig {
		if math.Abs(v) > 1.5 {
			t.Fatalf("sample %d = %v out of range", i, v)
		}
	}
}

func TestSynthesizeAudioRejectsBadConfig(t *testing.T) {
	if _, err := SynthesizeAudio(SynthConfig{SampleRate: 0, Duration: 1}, 1); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := SynthesizeAudio(SynthConfig{SampleRate: 16000, Duration: 0}, 1); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestPCM16RoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sig := make([]float64, 100)
		for i := range sig {
			sig[i] = rng.Float64()*2 - 1
		}
		back, err := PCM16Decode(PCM16Encode(sig))
		if err != nil {
			return false
		}
		for i := range sig {
			if math.Abs(back[i]-sig[i]) > 1.0/32767+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPCM16ClampsOutOfRange(t *testing.T) {
	b := PCM16Encode([]float64{2, -2})
	sig, err := PCM16Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sig[0]-1) > 1e-4 || math.Abs(sig[1]+1) > 1e-4 {
		t.Errorf("clamped decode = %v", sig)
	}
}

func TestPCM16DecodeOddLength(t *testing.T) {
	if _, err := PCM16Decode([]byte{1, 2, 3}); err == nil {
		t.Error("odd-length PCM accepted")
	}
}

func TestPCM16SizeMatchesPaperDatasetStats(t *testing.T) {
	// The paper's Librispeech items average 6.96 s; at 16 kHz 16-bit mono
	// that is ~223 KB on storage, which the storage model relies on.
	sig, _ := SynthesizeAudio(DefaultSynthConfig(), 2)
	size := len(PCM16Encode(sig))
	if size < 200_000 || size > 250_000 {
		t.Errorf("stored audio size = %d bytes, want ≈223 KB", size)
	}
}
