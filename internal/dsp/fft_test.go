package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func complexClose(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 256, 512} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := NaiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := FFT(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if !complexClose(got[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d bin %d: fft=%v dft=%v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	x := make([]complex128, 6)
	if err := FFT(x); err != ErrNotPow2 {
		t.Errorf("FFT(len 6) err = %v, want ErrNotPow2", err)
	}
	if err := IFFT(x); err != ErrNotPow2 {
		t.Errorf("IFFT(len 6) err = %v, want ErrNotPow2", err)
	}
}

func TestFFTEmptyIsNoop(t *testing.T) {
	if err := FFT(nil); err != nil {
		t.Errorf("FFT(nil) = %v", err)
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + sizeSel%9) // 2..512
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		if err := FFT(y); err != nil {
			return false
		}
		if err := IFFT(y); err != nil {
			return false
		}
		for i := range x {
			if !complexClose(x[i], y[i], 1e-9*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 128
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		x := make([]complex128, n)
		y := make([]complex128, n)
		combo := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			combo[i] = a*x[i] + y[i]
		}
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		fc := append([]complex128(nil), combo...)
		if FFT(fx) != nil || FFT(fy) != nil || FFT(fc) != nil {
			return false
		}
		for i := range fc {
			if !complexClose(fc[i], a*fx[i]+fy[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// Sum |x|² == (1/n) Sum |X|².
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 256
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if err := FFT(x); err != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= n
		return math.Abs(timeEnergy-freqEnergy) <= 1e-8*timeEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 16)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if !complexClose(v, 1, 1e-12) {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTRealSinusoidPeaksAtItsBin(t *testing.T) {
	const n = 512
	const bin = 37
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * bin * float64(i) / n)
	}
	spec, err := FFTReal(x)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i := 1; i < n/2; i++ {
		if cmplx.Abs(spec[i]) > cmplx.Abs(spec[peak]) {
			peak = i
		}
	}
	if peak != bin {
		t.Errorf("spectral peak at bin %d, want %d", peak, bin)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 400: 512, 512: 512, 513: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestHannWindowProperties(t *testing.T) {
	w := HannWindow(400)
	if w[0] != 0 {
		t.Errorf("w[0] = %v, want 0", w[0])
	}
	// Periodic Hann peaks at n/2 with value 1.
	if math.Abs(w[200]-1) > 1e-12 {
		t.Errorf("w[n/2] = %v, want 1", w[200])
	}
	// Symmetry of the periodic window: w[i] == w[n-i].
	for i := 1; i < 200; i++ {
		if math.Abs(w[i]-w[400-i]) > 1e-12 {
			t.Fatalf("asymmetric at %d: %v vs %v", i, w[i], w[400-i])
		}
	}
	if len(HannWindow(1)) != 1 || HannWindow(1)[0] != 1 {
		t.Error("HannWindow(1) should be [1]")
	}
}

// realPower runs the STFT's real-input transform on x (len a power of
// two ≥ 2): pack sample pairs to their bit-reversed positions the way
// MelPlan.powerRow does, then realFFT.power. It returns |X[k]|² for
// bins 0..n/2.
func realPower(t testing.TB, x []float64) []float64 {
	t.Helper()
	r, err := realFFTFor(len(x))
	if err != nil {
		t.Fatalf("n=%d: %v", len(x), err)
	}
	z := make([]complex128, len(x)/2)
	for i, j := range r.half.rev {
		z[j] = complex(x[2*i], x[2*i+1])
	}
	power := make([]float64, len(x)/2+1)
	r.power(power, z)
	return power
}

// TestRealFFTMatchesNaiveDFT is the oracle for the real-input transform
// (half-length complex plan + unpack into a power row, the loop the STFT
// runs): it must match |·|² of the O(n²) definition to a relative 1e-9
// at every length, DC and Nyquist bins and the one-point half plan
// (n == 2) included.
func TestRealFFTMatchesNaiveDFT(t *testing.T) {
	for n := 2; n <= 1024; n *= 2 {
		for seed := int64(1); seed <= 3; seed++ {
			x := randSignal(seed*1000+int64(n), n)
			cx := make([]complex128, n)
			for i, v := range x {
				cx[i] = complex(v, 0)
			}
			want := NaiveDFT(cx)
			scale := 0.0
			for _, v := range want {
				scale = math.Max(scale, cmplx.Abs(v))
			}
			for k, p := range realPower(t, x) {
				w := real(want[k])*real(want[k]) + imag(want[k])*imag(want[k])
				if math.Abs(p-w) > 1e-9*scale*scale {
					t.Fatalf("n=%d seed=%d power bin %d: %v, dft %v", n, seed, k, p, w)
				}
			}
		}
	}
	for _, n := range []int{0, 1, 6} {
		if _, err := realFFTFor(n); err != ErrNotPow2 {
			t.Errorf("realFFTFor(%d) err = %v, want ErrNotPow2", n, err)
		}
	}
	if _, err := FFTReal(make([]float64, 6)); err != ErrNotPow2 {
		t.Errorf("FFTReal(len 6) err = %v, want ErrNotPow2", err)
	}
	if got, err := FFTReal([]float64{3}); err != nil || len(got) != 1 || got[0] != 3 {
		t.Errorf("FFTReal(len 1) = %v, %v", got, err)
	}
}
