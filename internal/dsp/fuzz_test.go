package dsp

import (
	"math"
	"testing"
)

// FuzzRealFFTMatchesComplex: for any real signal of any power-of-two
// length 2…1024, the power row of the real-input transform (half-length
// plan + unpack, the loop the STFT runs) must agree with |·|² of the
// complex plan run on the zero-imaginary input to a relative 1e-9.
func FuzzRealFFTMatchesComplex(f *testing.F) {
	f.Add([]byte{}, uint8(0)) // the rest of the seed corpus is testdata/fuzz/
	f.Fuzz(func(t *testing.T, data []byte, sizeSel uint8) {
		n := 2 << (sizeSel % 10)
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := 0; i+1 < len(data) && i/2 < n; i += 2 {
			x[i/2] = float64(int16(uint16(data[i])|uint16(data[i+1])<<8)) / 32767
		}
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		plan, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Transform(cx); err != nil {
			t.Fatal(err)
		}
		scale := 1.0
		for _, v := range cx {
			scale = math.Max(scale, real(v)*real(v)+imag(v)*imag(v))
		}
		for k, got := range realPower(t, x) {
			want := real(cx[k])*real(cx[k]) + imag(cx[k])*imag(cx[k])
			if math.Abs(got-want) > 1e-9*scale {
				t.Fatalf("n=%d bin %d: real path |X|² = %v, complex path %v (X = %v)", n, k, got, want, cx[k])
			}
		}
	})
}

// FuzzPCM16DecodeInto: odd lengths are an error and nothing panics;
// even lengths decode into [-1, 1], identically with and without a
// reused buffer, and re-encode to the same bytes — except sample
// −32768, which PCM16Encode's clamp to ±1 turns into −32767.
func FuzzPCM16DecodeInto(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is testdata/fuzz/
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]float64, 0, 8)
		got, err := PCM16DecodeInto(buf, data)
		if len(data)%2 != 0 {
			if err == nil {
				t.Fatalf("odd length %d accepted", len(data))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := PCM16Decode(data)
		if err != nil || len(fresh) != len(got) || len(got) != len(data)/2 {
			t.Fatalf("decode lengths %d / %d for %d bytes (%v)", len(got), len(fresh), len(data), err)
		}
		back := PCM16Encode(got)
		for i, v := range got {
			if v != fresh[i] || v > 1 || v < -1-1.0/32767 {
				t.Fatalf("sample %d: %v (fresh %v)", i, v, fresh[i])
			}
			lo, hi := data[2*i], data[2*i+1]
			if lo == 0x00 && hi == 0x80 {
				lo = 0x01
			}
			if back[2*i] != lo || back[2*i+1] != hi {
				t.Fatalf("sample %d: bytes %02x%02x re-encode to %02x%02x", i, data[2*i+1], data[2*i], back[2*i+1], back[2*i])
			}
		}
	})
}
