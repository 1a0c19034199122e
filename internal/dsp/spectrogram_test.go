package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSTFTConfigValidate(t *testing.T) {
	good := DefaultSTFTConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bads := []STFTConfig{
		{SampleRate: 0, WindowSize: 400, HopSize: 160},
		{SampleRate: 16000, WindowSize: 0, HopSize: 160},
		{SampleRate: 16000, WindowSize: 400, HopSize: 0},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNumFrames(t *testing.T) {
	c := STFTConfig{SampleRate: 16000, WindowSize: 400, HopSize: 160}
	cases := map[int]int{0: 0, 399: 0, 400: 1, 559: 1, 560: 2, 16000: 98}
	for n, want := range cases {
		if got := c.NumFrames(n); got != want {
			t.Errorf("NumFrames(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPowerSTFTShape(t *testing.T) {
	cfg := DefaultSTFTConfig()
	sig := make([]float64, 16000) // 1 second
	s, err := PowerSTFT(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames != cfg.NumFrames(len(sig)) {
		t.Errorf("frames = %d, want %d", s.Frames, cfg.NumFrames(len(sig)))
	}
	if s.Bins != 257 { // NextPow2(400)=512 → 257 bins
		t.Errorf("bins = %d, want 257", s.Bins)
	}
}

func TestPowerSTFTToneLandsInRightBin(t *testing.T) {
	cfg := DefaultSTFTConfig()
	const freq = 1000.0
	n := 16000
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * freq * float64(i) / float64(cfg.SampleRate))
	}
	s, err := PowerSTFT(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Expected bin: freq/ (rate/fftLen) = 1000/(16000/512) = 32.
	fftLen := NextPow2(cfg.WindowSize)
	wantBin := int(math.Round(freq * float64(fftLen) / float64(cfg.SampleRate)))
	mid := s.Frames / 2
	peak := 0
	for f := 0; f < s.Bins; f++ {
		if s.Data[mid*s.Bins+f] > s.Data[mid*s.Bins+peak] {
			peak = f
		}
	}
	if abs := math.Abs(float64(peak - wantBin)); abs > 1 {
		t.Errorf("peak bin = %d, want ≈%d", peak, wantBin)
	}
}

func TestPowerSTFTNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sig := make([]float64, 2000)
		for i := range sig {
			sig[i] = rng.NormFloat64()
		}
		s, err := PowerSTFT(sig, DefaultSTFTConfig())
		if err != nil {
			return false
		}
		for _, v := range s.Data {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPowerSTFTShortSignal(t *testing.T) {
	s, err := PowerSTFT(make([]float64, 100), DefaultSTFTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames != 0 {
		t.Errorf("frames = %d, want 0", s.Frames)
	}
}

func TestMelScaleRoundTrip(t *testing.T) {
	for _, hz := range []float64{0, 100, 440, 1000, 4000, 8000} {
		back := MelToHz(HzToMel(hz))
		if math.Abs(back-hz) > 1e-9*(1+hz) {
			t.Errorf("round trip %v -> %v", hz, back)
		}
	}
	// Mel scale is monotonically increasing.
	prev := -1.0
	for hz := 0.0; hz <= 8000; hz += 50 {
		m := HzToMel(hz)
		if m <= prev {
			t.Fatalf("Mel scale not increasing at %v Hz", hz)
		}
		prev = m
	}
}

func TestMelFilterbankShapeAndCoverage(t *testing.T) {
	fb, err := NewMelFilterbank(80, 257, 16000, 20, 7600)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb.Filters) != 80 {
		t.Fatalf("filters = %d", len(fb.Filters))
	}
	for m, row := range fb.Filters {
		if len(row) != 257 {
			t.Fatalf("filter %d has %d bins", m, len(row))
		}
		var sum float64
		for _, w := range row {
			if w < 0 || w > 1 {
				t.Fatalf("filter %d has weight %v outside [0,1]", m, w)
			}
			sum += w
		}
		if sum == 0 {
			t.Errorf("filter %d is empty", m)
		}
	}
}

func TestMelFilterbankRejectsBadShapes(t *testing.T) {
	cases := []struct {
		mels, bins, rate int
		fmin, fmax       float64
	}{
		{0, 257, 16000, 20, 7600},
		{80, 1, 16000, 20, 7600},
		{80, 257, 0, 20, 7600},
		{80, 257, 16000, 7600, 20},
		{80, 257, 16000, -5, 7600},
	}
	for i, c := range cases {
		if _, err := NewMelFilterbank(c.mels, c.bins, c.rate, c.fmin, c.fmax); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMelFilterbankApplyDimensionMismatch(t *testing.T) {
	fb, _ := NewMelFilterbank(10, 257, 16000, 20, 7600)
	if _, err := fb.Apply(NewSpectrogram(3, 100)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestLogMelSpectrogramEndToEnd(t *testing.T) {
	sig, err := SynthesizeAudio(DefaultSynthConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMelConfig()
	mel, err := LogMelSpectrogram(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mel.Bins != cfg.NumMels {
		t.Errorf("bins = %d, want %d", mel.Bins, cfg.NumMels)
	}
	wantFrames := cfg.STFT.NumFrames(len(sig))
	if mel.Frames != wantFrames {
		t.Errorf("frames = %d, want %d", mel.Frames, wantFrames)
	}
	for i, v := range mel.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("cell %d is %v", i, v)
		}
	}
}

func TestLogMelDeterministicPerSeed(t *testing.T) {
	a, _ := SynthesizeAudio(DefaultSynthConfig(), 7)
	b, _ := SynthesizeAudio(DefaultSynthConfig(), 7)
	c, _ := SynthesizeAudio(DefaultSynthConfig(), 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different audio")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical audio")
	}
}

// denseMel is the reference Mel stage: every bin of every filter in
// ascending order, skipping exact zeros.
func denseMel(fb *MelFilterbank, s *Spectrogram) *Spectrogram {
	out := NewSpectrogram(s.Frames, fb.NumMels)
	for t := 0; t < s.Frames; t++ {
		for m, filt := range fb.Filters {
			var acc float64
			for f, w := range filt {
				if w != 0 {
					acc += w * s.Data[t*s.Bins+f]
				}
			}
			out.Set(t, m, acc)
		}
	}
	return out
}

// TestMelFilterbankSparseBitIdenticalToDense: summing only each
// channel's non-zero range must give the dense loop's bits, including
// an FMax clamped at Nyquist and filters narrower than one bin (empty
// rows). A bank assembled as a literal has no ranges and must still
// work, summing whole rows to the same bits.
func TestMelFilterbankSparseBitIdenticalToDense(t *testing.T) {
	cases := []struct {
		mels, bins, rate int
		fmin, fmax       float64
	}{
		{80, 257, 16000, 20, 7600},
		{40, 129, 16000, 0, 8000},
		{23, 257, 8000, 100, 20000}, // FMax above Nyquist
		{64, 17, 16000, 20, 7600},   // low channels narrower than one bin
		{3, 2, 16000, 0, 8000},
	}
	rng := rand.New(rand.NewSource(5))
	for _, c := range cases {
		fb, err := NewMelFilterbank(c.mels, c.bins, c.rate, c.fmin, c.fmax)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		empty := 0
		for m := range fb.Filters {
			if fb.lo[m] == fb.hi[m] {
				empty++
			}
		}
		if c.bins == 17 && empty == 0 {
			t.Errorf("%+v: expected at least one empty filter", c)
		}
		power := NewSpectrogram(5, c.bins)
		for i := range power.Data {
			power.Data[i] = rng.ExpFloat64() * 1e3
		}
		var got Spectrogram
		if err := fb.ApplyInto(&got, power); err != nil {
			t.Fatal(err)
		}
		literal := &MelFilterbank{NumMels: fb.NumMels, NumBins: fb.NumBins, Filters: fb.Filters}
		lit, err := literal.Apply(power)
		if err != nil {
			t.Fatal(err)
		}
		want := denseMel(fb, power)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] || lit.Data[i] != want.Data[i] {
				t.Fatalf("%+v cell %d: sparse %v, literal bank %v, dense %v", c, i, got.Data[i], lit.Data[i], want.Data[i])
			}
		}
	}
}

// referenceLogMel is the front-end written from its definition: Hann
// window → zero pad → NaiveDFT → |·|² → dense Mel → log. fb == nil
// stops after the power spectrum.
func referenceLogMel(signal []float64, cfg MelConfig, fb *MelFilterbank) *Spectrogram {
	st := cfg.STFT
	fftLen := NextPow2(st.WindowSize)
	window := HannWindow(st.WindowSize)
	power := NewSpectrogram(st.NumFrames(len(signal)), fftLen/2+1)
	for f := 0; f < power.Frames; f++ {
		buf := make([]complex128, fftLen)
		for i := 0; i < st.WindowSize; i++ {
			buf[i] = complex(signal[f*st.HopSize+i]*window[i], 0)
		}
		for k, v := range NaiveDFT(buf)[:power.Bins] {
			power.Set(f, k, real(v)*real(v)+imag(v)*imag(v))
		}
	}
	if fb == nil {
		return power
	}
	mel := denseMel(fb, power)
	LogCompress(mel, cfg.LogEps)
	return mel
}

// TestLogMelMatchesNaiveReference states the numerical contract of the
// fused front-end: within 1e-9 of the definition, for odd windows,
// the default 400, a window that fills the FFT, and the degenerate
// one-sample window (power only — a one-bin Mel bank does not exist).
func TestLogMelMatchesNaiveReference(t *testing.T) {
	for _, win := range []int{255, 400, 512, 2, 1} {
		cfg := DefaultMelConfig()
		cfg.STFT.WindowSize = win
		cfg.STFT.HopSize = win/3 + 1
		sig := randSignal(int64(win), 3*win+7)

		gotPower, err := PowerSTFT(sig, cfg.STFT)
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		wantPower := referenceLogMel(sig, cfg, nil)
		if gotPower.Frames != wantPower.Frames || gotPower.Bins != wantPower.Bins || gotPower.Frames < 3 {
			t.Fatalf("window %d: power shape %dx%d, want %dx%d", win, gotPower.Frames, gotPower.Bins, wantPower.Frames, wantPower.Bins)
		}
		for i, w := range wantPower.Data {
			if math.Abs(gotPower.Data[i]-w) > 1e-9*(1+w) {
				t.Fatalf("window %d power cell %d: %v, reference %v", win, i, gotPower.Data[i], w)
			}
		}

		if win == 1 {
			if _, err := NewMelPlan(cfg); err == nil {
				t.Error("window 1: a one-bin Mel filterbank should be rejected")
			}
			continue
		}
		fb, err := NewMelFilterbank(cfg.NumMels, gotPower.Bins, cfg.STFT.SampleRate, cfg.FMin, cfg.FMax)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceLogMel(sig, cfg, fb)
		got, err := LogMelSpectrogram(sig, cfg)
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		if got.Frames != want.Frames || got.Bins != want.Bins {
			t.Fatalf("window %d: shape %dx%d, want %dx%d", win, got.Frames, got.Bins, want.Frames, want.Bins)
		}
		for i, w := range want.Data {
			if math.Abs(got.Data[i]-w) > 1e-9 {
				t.Fatalf("window %d cell %d: %v, reference %v", win, i, got.Data[i], w)
			}
		}
	}
}

// TestLogMelShortSignal: fewer samples than one window is zero frames,
// not a panic, on the plan and the one-shot alike.
func TestLogMelShortSignal(t *testing.T) {
	cfg := DefaultMelConfig()
	plan, err := NewMelPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := Spectrogram{Frames: 9, Bins: 9, Data: make([]float64, 81)}
	for _, n := range []int{0, 1, cfg.STFT.WindowSize - 1} {
		if err := plan.LogMelInto(&dst, make([]float64, n)); err != nil {
			t.Fatal(err)
		}
		if dst.Frames != 0 || dst.Bins != cfg.NumMels || len(dst.Data) != 0 {
			t.Errorf("len %d: got %dx%d with %d cells, want 0x%d empty", n, dst.Frames, dst.Bins, len(dst.Data), cfg.NumMels)
		}
	}
	mel, err := LogMelSpectrogram(nil, cfg)
	if err != nil || mel.Frames != 0 {
		t.Errorf("LogMelSpectrogram(nil) = %+v, %v", mel, err)
	}
}
