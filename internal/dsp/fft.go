// Package dsp implements the audio data-preparation substrate of the
// TrainBox reproduction: FFT, windowed STFT, Mel filterbanks, log-Mel
// spectrograms, SpecAugment-style masking and feature normalization —
// the operation set the paper's audio FPGA engine implements (Table III)
// and that the baseline runs on host CPUs.
//
// Everything is implemented from scratch on float64/complex128 with no
// dependencies beyond the standard library. There is one transform: the
// iterative radix-4 Cooley–Tukey butterflies of FFTPlan, which FFT, IFFT
// and the STFT's real-input transform (realFFT) all run.
// Correctness is established in tests against a naive O(n²) DFT and via
// algebraic properties (linearity, Parseval, round-trip).
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// ErrNotPow2 is returned when a transform length is not a power of two.
var ErrNotPow2 = fmt.Errorf("dsp: transform length must be a power of two")

// FFTPlan holds the bit-reversal permutation and the twiddle factors
// for one transform length. The tables are immutable after
// construction, so a single plan is safe for concurrent use.
type FFTPlan struct {
	n   int
	rev []int // input element i belongs at position rev[i]
	// The first pass has no twiddles: radix-2 when log2 n is odd,
	// radix-4 otherwise. Every later pass is radix-4 over blocks of 4h
	// starting at h = h0, with tw[pass][k] = e^{-2πijk/4h}, j = 1..3.
	h0 int
	tw [][][3]complex128
}

// NewFFTPlan builds a plan for length-n transforms. n must be a power
// of two (ErrNotPow2 otherwise); n == 0 yields a no-op plan.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n&(n-1) != 0 {
		return nil, ErrNotPow2
	}
	log2 := bits.TrailingZeros(uint(n))
	p := &FFTPlan{n: n, rev: make([]int, n), h0: 4 - 2*(log2&1)}
	for i := 1; i < n; i++ {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> (64 - uint(log2)))
	}
	for h := p.h0; 4*h <= n; h *= 4 {
		tw := make([][3]complex128, h)
		for k := range tw {
			for j := range tw[k] {
				tw[k][j] = cmplx.Rect(1, -2*math.Pi*float64((j+1)*k)/float64(4*h))
			}
		}
		p.tw = append(p.tw, tw)
	}
	return p, nil
}

// Transform computes the in-place forward DFT of x. len(x) must equal
// the plan length.
func (p *FFTPlan) Transform(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: plan length %d, input length %d", p.n, len(x))
	}
	for i, j := range p.rev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.butterflies(x)
	return nil
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// scale, as the conjugate of the forward transform of the conjugate.
func (p *FFTPlan) Inverse(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: plan length %d, input length %d", p.n, len(x))
	}
	for i, v := range x {
		x[i] = cmplx.Conj(v)
	}
	_ = p.Transform(x) // length checked above
	n := float64(len(x))
	for i, v := range x {
		x[i] = complex(real(v)/n, -imag(v)/n)
	}
	return nil
}

// butterflies runs every pass over x, which must already be in
// bit-reversed order — Transform permutes in place, the real-input
// path writes its packed frame straight to the permuted positions.
func (p *FFTPlan) butterflies(x []complex128) {
	if p.h0 == 2 {
		for i := 0; i+1 < len(x); i += 2 {
			x[i], x[i+1] = x[i]+x[i+1], x[i]-x[i+1]
		}
	} else {
		for i := 0; i+3 < len(x); i += 4 {
			x[i], x[i+1], x[i+2], x[i+3] = radix4(x[i], x[i+1], x[i+2], x[i+3])
		}
	}
	h := p.h0
	for _, tw := range p.tw {
		for start := 0; start < len(x); start += 4 * h {
			x0 := x[start:][:len(tw)]
			x1 := x[start+h:][:len(tw)]
			x2 := x[start+2*h:][:len(tw)]
			x3 := x[start+3*h:][:len(tw)]
			for k := range tw {
				w := &tw[k]
				x0[k], x1[k], x2[k], x3[k] = radix4(x0[k], x1[k]*w[1], x2[k]*w[0], x3[k]*w[2])
			}
		}
		h *= 4
	}
}

// radix4 fuses two radix-2 stages over four twiddled inputs held in
// bit-reversed order: (a, b) and (c, d) are the first stage's pairs,
// and the second stage's extra quarter turn on the odd pair is −i.
func radix4(a, b, c, d complex128) (complex128, complex128, complex128, complex128) {
	s0, d0 := a+b, a-b
	s1, d1 := c+d, c-d
	d1 = complex(imag(d1), -real(d1))
	return s0 + s1, d0 + d1, s0 - s1, d0 - d1
}

// FFT computes the in-place forward discrete Fourier transform of x.
// len(x) must be a power of two (ErrNotPow2 otherwise). FFT and IFFT run
// the process-wide plan for len(x), built on first use and kept for the
// life of the process (≈ 24 bytes per point, one plan per power of two).
func FFT(x []complex128) error {
	p, err := fftPlanFor(len(x))
	if err != nil {
		return err
	}
	return p.Transform(x)
}

// IFFT computes the in-place inverse DFT of x, including the 1/n scale,
// so IFFT(FFT(x)) == x up to rounding. len(x) must be a power of two.
func IFFT(x []complex128) error {
	p, err := fftPlanFor(len(x))
	if err != nil {
		return err
	}
	return p.Inverse(x)
}

// realFFT transforms real sequences of length n = 2m with the m-point
// complex plan: even samples ride in the real parts and odd samples in
// the imaginary parts of one half-length sequence z, whose transform Z
// separates into the two interleaved spectra bin by bin (unpackPair).
// Immutable and shared like FFTPlan.
type realFFT struct {
	half   *FFTPlan
	unpack []complex128 // −i/2 · e^{−2πik/n}, k ≤ m/2
}

func newRealFFT(n int) (*realFFT, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, ErrNotPow2
	}
	half, err := fftPlanFor(n / 2)
	if err != nil {
		return nil, err
	}
	r := &realFFT{half: half, unpack: make([]complex128, n/4+1)}
	for k := range r.unpack {
		r.unpack[k] = complex(0, -0.5) * cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))
	}
	return r, nil
}

// unpackPair returns bins k and m−k of the real sequence's spectrum
// from bins a = Z[k] and b = Z[m−k] of the packed transform and
// w = unpack[k]: X[k] = E + T and X[m−k] = conj(E − T) with
// E = (a + conj b)/2 the even-sample spectrum and T the twiddled
// odd-sample spectrum.
func unpackPair(a, b, w complex128) (complex128, complex128) {
	b = cmplx.Conj(b)
	e := complex(0.5*(real(a)+real(b)), 0.5*(imag(a)+imag(b)))
	t := (a - b) * w
	return e + t, cmplx.Conj(e - t)
}

// power runs the butterflies over the packed, bit-reversed z and writes
// |X[k]|² for bins 0..m of the real sequence's spectrum to dst.
func (r *realFFT) power(dst []float64, z []complex128) {
	r.half.butterflies(z)
	m := len(z)
	dc, ny := real(z[0])+imag(z[0]), real(z[0])-imag(z[0])
	dst[0], dst[m] = dc*dc, ny*ny
	for k := 1; k <= m/2; k++ {
		x, y := unpackPair(z[k], z[m-k], r.unpack[k])
		dst[k] = real(x)*real(x) + imag(x)*imag(x)
		dst[m-k] = real(y)*real(y) + imag(y)*imag(y)
	}
}

// FFTReal transforms a real signal and returns the full complex spectrum.
// len(x) must be a power of two.
func FFTReal(x []float64) ([]complex128, error) {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	if err := FFT(out); err != nil {
		return nil, err
	}
	return out, nil
}

// NaiveDFT computes the O(n²) forward DFT; it exists as a test oracle and
// as the reference definition of the transform the FFT must match.
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = sum
	}
	return out
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// HannWindow returns the n-point periodic Hann window, the standard STFT
// analysis window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
	}
	return w
}
