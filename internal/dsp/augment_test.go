package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"trainbox/internal/gauss"
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

// TestAddNoiseDistribution draws 10⁶ noise values onto a zero signal:
// mean ≈ 0, standard deviation within 0.5 % of σ, and a
// Kolmogorov–Smirnov distance to Φ inside the table's quantization
// (½/4096) plus the 99.9 % sampling bound 1.95/√n. The caller's rng
// advances by one draw, equal seeds give equal samples, and a warm call
// allocates nothing.
func TestAddNoiseDistribution(t *testing.T) {
	const sigma = 0.25
	sig := make([]float64, 1_000_000)
	rng := rand.New(rand.NewSource(17))
	AddNoise(sig, sigma, rng)
	next := rand.New(rand.NewSource(17))
	next.Uint64()
	if rng.Uint64() != next.Uint64() {
		t.Error("AddNoise did not advance the caller's rng by exactly one Uint64")
	}

	var sum, sq float64
	z := make([]float64, len(sig))
	for i, v := range sig {
		sum, sq = sum+v, sq+v*v
		z[i] = v / sigma
	}
	n := float64(len(sig))
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 4*sigma/math.Sqrt(n) {
		t.Errorf("noise mean = %.6f, want 0 within 4 standard errors", mean)
	}
	if math.Abs(std/sigma-1) > 0.005 {
		t.Errorf("noise std = %.6f, want within 0.5%% of %v", std, sigma)
	}
	sort.Float64s(z)
	var ks float64
	for i, x := range z {
		f := 0.5 * math.Erfc(-x/math.Sqrt2)
		ks = max(ks, float64(i+1)/n-f, f-float64(i)/n)
	}
	if bound := 0.5/4096 + 1.95/math.Sqrt(n); ks > bound {
		t.Errorf("KS distance to Φ = %.5f, want ≤ %.5f", ks, bound)
	}
	t.Logf("10⁶ draws at σ=%v: mean %.6f, std %.6f, KS %.5f (%.2f/4096)", sigma, mean, std, ks, ks*4096)

	again := make([]float64, len(sig))
	AddNoise(again, sigma, rand.New(rand.NewSource(17)))
	for i := range sig {
		if again[i] != sig[i] {
			t.Fatalf("same seed: sample %d = %v, want %v", i, again[i], sig[i])
		}
	}
	if n := testing.AllocsPerRun(10, func() { AddNoise(again, sigma, rng) }); n != 0 {
		t.Errorf("AddNoise allocates %.1f objects/call, want 0", n)
	}
}

// TestAddNoiseNoop: a nil rng or a stddev that is not positive — zero,
// negative or NaN — leaves the signal as it is.
func TestAddNoiseNoop(t *testing.T) {
	sig := []float64{1, 2, 3}
	for _, sigma := range []float64{0, -1, math.NaN()} {
		AddNoise(sig, sigma, rand.New(rand.NewSource(1)))
	}
	AddNoise(sig, 0.5, nil)
	if sig[0] != 1 || sig[1] != 2 || sig[2] != 3 {
		t.Errorf("noop AddNoise modified signal: %v", sig)
	}
}

// TestAddNoiseMatchesBlockCutStream rebuilds the kernel's first form —
// indices taken 320 at a time, each run of them cut from whole stream
// words with the unused fields of a last partial word dropped — and
// checks AddNoise against it bit for bit around every word boundary.
func TestAddNoiseMatchesBlockCutStream(t *testing.T) {
	const block = 320
	for _, n := range []int{0, 1, 4, 5, 6, 9, 10, 11, block - 1, block, block + 1, 3*block + 7} {
		base := make([]float64, n)
		for i := range base {
			base[i] = float64(i%7) - 3
		}
		got := append([]float64(nil), base...)
		AddNoise(got, 0.3, rand.New(rand.NewSource(int64(n))))

		want := append([]float64(nil), base...)
		st := gauss.NewStream(rand.New(rand.NewSource(int64(n))))
		for lo := 0; lo < n; lo += block {
			run := want[lo:min(lo+block, n)]
			var w uint64
			for i := range run {
				if i%gauss.PerWord == 0 {
					w, st = st.Next()
				}
				run[i] += 0.3 * gauss.Table[w>>(i%gauss.PerWord*gauss.Bits)&(gauss.Levels-1)]
			}
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: sample %d = %v, want %v", n, i, got[i], want[i])
			}
		}
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
