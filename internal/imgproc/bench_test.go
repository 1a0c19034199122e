package imgproc

import "testing"

func benchImage(b *testing.B) (*Image, []byte) {
	b.Helper()
	cfg := DefaultSynthConfig()
	im := SynthesizeImage(cfg, 1, 3)
	data, err := EncodeJPEG(im, cfg.Quality)
	if err != nil {
		b.Fatal(err)
	}
	return im, data
}

// BenchmarkDecodeJPEGInto is the reused-destination decode — the sample
// path's entry kernel.
func BenchmarkDecodeJPEGInto(b *testing.B) {
	_, data := benchImage(b)
	var dst Image
	if err := DecodeJPEGInto(&dst, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeJPEGInto(&dst, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkToTensorInto is the normalize-and-cast kernel into a reused
// tensor.
func BenchmarkToTensorInto(b *testing.B) {
	im, _ := benchImage(b)
	var dst Tensor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ToTensorInto(&dst, im, ImagenetMean, ImagenetStd); err != nil {
			b.Fatal(err)
		}
	}
}
