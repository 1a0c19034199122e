package imgproc

import (
	"fmt"
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

// BenchmarkDecodeJPEGCropInto decodes a 256² corpus file into the full
// frame, the 224² model crop and a 16² window: every MCU is
// entropy-decoded each time, but only the window's blocks are
// inverse-transformed and colour-converted.
func BenchmarkDecodeJPEGCropInto(b *testing.B) {
	_, data := benchImage(b)
	for _, n := range []int{StoredSize, ModelSize, 16} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			var dst Image
			x := (StoredSize - n) / 2
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodeJPEGCropInto(&dst, data, x, x, n, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAugmentInto runs the mirror and the in-place noise kernels
// on a 224² crop, as the image pipeline does after cropping, each in
// its own sub-benchmark.
func BenchmarkAugmentInto(b *testing.B) {
	im, _ := benchImage(b)
	var crop, aug Image
	if err := RandomCropInto(&crop, im, ModelSize, ModelSize, nil); err != nil {
		b.Fatal(err)
	}
	b.Run("mirror", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MirrorInto(&aug, &crop)
		}
	})
	b.Run("noise", func(b *testing.B) {
		MirrorInto(&aug, &crop)
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GaussianNoiseInto(&aug, &aug, 4, rng)
		}
	})
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
