package dsp

import "testing"

func benchSignal(b *testing.B) []float64 {
	b.Helper()
	sig, err := SynthesizeAudio(DefaultSynthConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return sig
}

// BenchmarkFFTPlan512 measures one planned 512-point transform
// (steady state: zero allocations).
func BenchmarkFFTPlan512(b *testing.B) {
	plan, err := NewFFTPlan(512)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]complex128, 512)
	for i := range src {
		src[i] = complex(float64(i%101)/101, 0)
	}
	work := make([]complex128, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		if err := plan.Transform(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMelPlanLogMel is the planned log-Mel front-end with a reused
// destination — the audio path's per-sample kernel.
func BenchmarkMelPlanLogMel(b *testing.B) {
	sig := benchSignal(b)
	plan, err := NewMelPlan(DefaultMelConfig())
	if err != nil {
		b.Fatal(err)
	}
	var out Spectrogram
	if err := plan.LogMelInto(&out, sig); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.LogMelInto(&out, sig); err != nil {
			b.Fatal(err)
		}
	}
}
