package dataprep

import (
	"testing"

	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
	"trainbox/internal/memframe"
)

func benchJPEG(b *testing.B) []byte {
	b.Helper()
	cfg := imgproc.DefaultSynthConfig()
	data, err := imgproc.EncodeJPEG(imgproc.SynthesizeImage(cfg, 1, 3), cfg.Quality)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func benchPCM(b *testing.B) []byte {
	b.Helper()
	sig, err := dsp.SynthesizeAudio(dsp.DefaultSynthConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return dsp.PCM16Encode(sig)
}

// BenchmarkPrepareImageScratch is the steady-state pooled path: one
// Scratch, outputs recycled every iteration.
func BenchmarkPrepareImageScratch(b *testing.B) {
	data := benchJPEG(b)
	cfg := DefaultImageConfig()
	out := memframe.NewSet()
	s := NewScratchWithOutput(out)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := PrepareImageScratch(data, cfg, 7, s)
		if err != nil {
			b.Fatal(err)
		}
		out.F32.Put(t.Data)
	}
}

// BenchmarkPrepareAudioScratch is the pooled audio path with a cached
// MelPlan and recycled spectrogram buffers.
func BenchmarkPrepareAudioScratch(b *testing.B) {
	data := benchPCM(b)
	cfg := DefaultAudioConfig()
	out := memframe.NewSet()
	s := NewScratchWithOutput(out)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := PrepareAudioScratch(data, cfg, 7, s)
		if err != nil {
			b.Fatal(err)
		}
		out.F64.Put(sp.Data)
	}
}
