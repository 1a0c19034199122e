package imgproc

import (
	"math/rand"
	"testing"
)

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

// BenchmarkAugmentInto runs the mirror and the in-place noise kernels
// on a 224² crop, as the image pipeline does after cropping.
func BenchmarkAugmentInto(b *testing.B) {
	im, _ := benchImage(b)
	var crop, aug Image
	if err := CenterCropInto(&crop, im, ModelSize, ModelSize); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MirrorInto(&aug, &crop)
		GaussianNoiseInto(&aug, &aug, 4, rng)
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
