package dsp

import (
	"math/rand"
	"testing"
)

func randSignal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()*2 - 1
	}
	return s
}

// TestFFTPlanBitIdenticalToFFT checks a privately built plan against
// the one-shot FFT/IFFT (the shared cached plan) bit for bit, across
// sizes and seeds.
func TestFFTPlanBitIdenticalToFFT(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 512} {
		plan, err := NewFFTPlan(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for seed := int64(0); seed < 3; seed++ {
			sig := randSignal(seed, n)
			a := make([]complex128, n)
			b := make([]complex128, n)
			for i, v := range sig {
				a[i] = complex(v, 0)
				b[i] = complex(v, 0)
			}
			if err := FFT(a); err != nil {
				t.Fatal(err)
			}
			if err := plan.Transform(b); err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d seed=%d bin %d: plan %v, FFT %v", n, seed, i, b[i], a[i])
				}
			}
			if err := plan.Inverse(b); err != nil {
				t.Fatal(err)
			}
			if err := IFFT(a); err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d seed=%d inverse bin %d differs", n, seed, i)
				}
			}
		}
	}
	if _, err := NewFFTPlan(48); err != ErrNotPow2 {
		t.Errorf("NewFFTPlan(48) = %v, want ErrNotPow2", err)
	}
}

// TestMelFilterbankCacheShared is the satellite regression test: two
// lookups with the same config must return the same filterbank.
func TestMelFilterbankCacheShared(t *testing.T) {
	cfg := DefaultMelConfig()
	bins := NextPow2(cfg.STFT.WindowSize)/2 + 1
	a, err := melFilterbankFor(cfg, bins)
	if err != nil {
		t.Fatal(err)
	}
	b, err := melFilterbankFor(cfg, bins)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same config produced two filterbanks — cache not shared")
	}
	other := cfg
	other.NumMels = 40
	c, err := melFilterbankFor(other, bins)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different configs must not share a filterbank")
	}
	// Two plans with the same config share the filterbank too.
	p1, err := NewMelPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewMelPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.fb != p2.fb {
		t.Error("plans with the same config must share the filterbank")
	}
}

// TestMelPlanBitIdentical checks LogMelInto against LogMelSpectrogram
// across seeds, including reuse of the same plan, scratch and
// destination.
func TestMelPlanBitIdentical(t *testing.T) {
	cfg := DefaultMelConfig()
	cfg.STFT.WindowSize = 256
	cfg.STFT.HopSize = 128
	cfg.NumMels = 40
	plan, err := NewMelPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dst Spectrogram
	for seed := int64(1); seed <= 4; seed++ {
		sig := randSignal(seed, 4000+int(seed)*37)
		want, err := LogMelSpectrogram(sig, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.LogMelInto(&dst, sig); err != nil {
			t.Fatal(err)
		}
		if dst.Frames != want.Frames || dst.Bins != want.Bins {
			t.Fatalf("seed %d: shape %dx%d, want %dx%d", seed, dst.Frames, dst.Bins, want.Frames, want.Bins)
		}
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("seed %d cell %d: plan %v, legacy %v", seed, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// TestMelPlanSteadyStateAllocs: a warmed Mel plan writing into a
// reused destination, and the in-place FFT under it, should not
// allocate.
func TestMelPlanSteadyStateAllocs(t *testing.T) {
	cfg := DefaultMelConfig()
	cfg.STFT.WindowSize = 256
	cfg.STFT.HopSize = 128
	cfg.NumMels = 40
	plan, err := NewMelPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sig := randSignal(7, 4096)
	var dst Spectrogram
	if err := plan.LogMelInto(&dst, sig); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := plan.LogMelInto(&dst, sig); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm LogMelInto allocates %.1f objects/call, want 0", allocs)
	}
	fft, err := NewFFTPlan(512)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]complex128, 512)
	allocs = testing.AllocsPerRun(10, func() {
		if err := fft.Transform(work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FFTPlan.Transform allocates %.1f objects/call, want 0", allocs)
	}
}

// TestPCM16DecodeInto checks reuse semantics and identity with the
// allocating variant.
func TestPCM16DecodeInto(t *testing.T) {
	sig := randSignal(3, 333)
	b := PCM16Encode(sig)
	want, err := PCM16Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 0, 512)
	got, err := PCM16DecodeInto(buf, b)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("PCM16DecodeInto did not reuse the provided capacity")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v vs %v", i, got[i], want[i])
		}
	}
	if _, err := PCM16DecodeInto(nil, []byte{1}); err == nil {
		t.Error("odd-length payload should fail")
	}
}

// TestSpectrogramReset checks capacity reuse and zeroing.
func TestSpectrogramReset(t *testing.T) {
	var s Spectrogram
	s.Reset(4, 8)
	for i := range s.Data {
		s.Data[i] = 1
	}
	p := &s.Data[0]
	s.Reset(2, 8)
	if &s.Data[0] != p {
		t.Error("shrinking Reset should reuse Data")
	}
	for i, v := range s.Data {
		if v != 0 {
			t.Fatalf("cell %d not zeroed after Reset: %v", i, v)
		}
	}
	s.Reset(100, 100)
	if len(s.Data) != 100*100 {
		t.Errorf("grown Reset len %d", len(s.Data))
	}
}
