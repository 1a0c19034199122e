package imgproc

import (
	"bytes"
	"encoding/binary"
	"image"
	"image/jpeg"
	"math/rand"
	"runtime"
	"testing"
)

func synthJPEG(t *testing.T, seed int64, quality int) []byte {
	t.Helper()
	im := SynthesizeImage(DefaultSynthConfig(), seed, int(seed)%10)
	data, err := EncodeJPEG(im, quality)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeJPEGIntoMatchesGenericPath pins the concrete-type fast
// paths (YCbCr, Gray) to the generic At(x,y).RGBA() reference they
// replaced.
func TestDecodeJPEGIntoMatchesGenericPath(t *testing.T) {
	decodeGeneric := func(data []byte) *Image {
		src, err := jpeg.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		bounds := src.Bounds()
		out := NewImage(bounds.Dx(), bounds.Dy())
		for y := bounds.Min.Y; y < bounds.Max.Y; y++ {
			for x := bounds.Min.X; x < bounds.Max.X; x++ {
				r, g, b, _ := src.At(x, y).RGBA()
				out.Set(x-bounds.Min.X, y-bounds.Min.Y, uint8(r>>8), uint8(g>>8), uint8(b>>8))
			}
		}
		return out
	}

	color := synthJPEG(t, 11, 85)
	gray := func() []byte {
		g := image.NewGray(image.Rect(0, 0, 60, 44))
		for i := range g.Pix {
			g.Pix[i] = uint8(i * 3 % 256)
		}
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, g, &jpeg.Options{Quality: 90}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	for name, data := range map[string][]byte{"ycbcr": color, "gray": gray} {
		want := decodeGeneric(data)
		got := &Image{}
		if err := DecodeJPEGInto(got, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s: fast path differs from generic At() path", name)
		}
	}
}

// TestIntoVariantsBitIdentical drives each kernel with one destination
// reused across kernels, sizes and seeds and compares it with a fresh
// destination: stale capacity must never leak into the output.
func TestIntoVariantsBitIdentical(t *testing.T) {
	var dstImg Image
	var dstTen Tensor
	for seed := int64(0); seed < 4; seed++ {
		src := SynthesizeImage(DefaultSynthConfig(), seed, int(seed)%10)
		for name, op := range map[string]func(dst *Image, rng *rand.Rand) error{
			"CropInto":       func(dst *Image, _ *rand.Rand) error { return CropInto(dst, src, 10, 20, 100, 90) },
			"CenterCropInto": func(dst *Image, _ *rand.Rand) error { return CenterCropInto(dst, src, ModelSize, ModelSize) },
			"RandomCropInto": func(dst *Image, rng *rand.Rand) error {
				return RandomCropInto(dst, src, ModelSize, ModelSize, rng)
			},
			"MirrorInto":        func(dst *Image, _ *rand.Rand) error { MirrorInto(dst, src); return nil },
			"GaussianNoiseInto": func(dst *Image, rng *rand.Rand) error { GaussianNoiseInto(dst, src, 5, rng); return nil },
		} {
			fresh := &Image{}
			if err := op(fresh, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			if err := op(&dstImg, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			if dstImg.W != fresh.W || dstImg.H != fresh.H || !bytes.Equal(dstImg.Pix, fresh.Pix) {
				t.Fatalf("seed %d: %s into a reused destination differs from a fresh one", seed, name)
			}
		}
		// In-place aliasing path: dstImg holds the noised copy by now.
		inPlace := &Image{W: src.W, H: src.H, Pix: append([]uint8(nil), src.Pix...)}
		GaussianNoiseInto(inPlace, inPlace, 5, rand.New(rand.NewSource(seed)))
		GaussianNoiseInto(&dstImg, src, 5, rand.New(rand.NewSource(seed)))
		if !bytes.Equal(inPlace.Pix, dstImg.Pix) {
			t.Fatalf("seed %d: in-place GaussianNoiseInto differs", seed)
		}

		fresh := &Tensor{}
		if err := ToTensorInto(fresh, src, ImagenetMean, ImagenetStd); err != nil {
			t.Fatal(err)
		}
		if err := ToTensorInto(&dstTen, src, ImagenetMean, ImagenetStd); err != nil {
			t.Fatal(err)
		}
		if len(dstTen.Data) != len(fresh.Data) {
			t.Fatalf("seed %d: tensor size differs", seed)
		}
		for i := range fresh.Data {
			if dstTen.Data[i] != fresh.Data[i] {
				t.Fatalf("seed %d: ToTensorInto cell %d differs", seed, i)
			}
		}
	}

	// The destination is warm by now: the cast reuses it and allocates
	// nothing per sample.
	src := SynthesizeImage(DefaultSynthConfig(), 1, 3)
	if n := testing.AllocsPerRun(10, func() {
		if err := ToTensorInto(&dstTen, src, ImagenetMean, ImagenetStd); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm ToTensorInto allocates %.1f objects/call, want 0", n)
	}
}

// TestIntoValidationErrors: invalid arguments must error without
// disturbing the destination.
func TestIntoValidationErrors(t *testing.T) {
	src := NewImage(32, 32)
	var dst Image
	if err := CropInto(&dst, src, 30, 30, 10, 10); err == nil {
		t.Error("out-of-bounds CropInto should fail")
	}
	var ten Tensor
	if err := ToTensorInto(&ten, src, []float64{0}, nil); err == nil {
		t.Error("short mean should fail")
	}
	if err := ToTensorInto(&ten, src, nil, []float64{1, 0, 1}); err == nil {
		t.Error("non-positive std should fail")
	}
}

// TestDecodeJPEGAllocs: the fast path plus buffer reuse keeps decode
// allocations bounded by the stdlib decoder's own internals — orders of
// magnitude below the per-pixel boxing it replaced (3·W·H interface
// allocations; ~196k for a 256×256 image).
func TestDecodeJPEGAllocs(t *testing.T) {
	data := synthJPEG(t, 5, 85)
	var dst Image
	if err := DecodeJPEGInto(&dst, data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := DecodeJPEGInto(&dst, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("DecodeJPEGInto with reused dst allocates %.0f objects/decode, want ≤ 40", allocs)
	}
}

// TestImageTensorReset checks capacity reuse.
func TestImageTensorReset(t *testing.T) {
	var im Image
	im.Reset(16, 16)
	p := &im.Pix[0]
	im.Reset(8, 8)
	if &im.Pix[0] != p {
		t.Error("shrinking Image.Reset should reuse Pix")
	}
	var ten Tensor
	ten.Reset(3, 16, 16)
	q := &ten.Data[0]
	ten.Reset(3, 8, 8)
	if &ten.Data[0] != q {
		t.Error("shrinking Tensor.Reset should reuse Data")
	}
	defer func() {
		if recover() == nil {
			t.Error("Image.Reset with invalid size should panic")
		}
	}()
	im.Reset(0, 4)
}

// tinyJPEG is a 16² stdlib-encoded file: one SOF0 frame header.
func tinyJPEG(t testing.TB) []byte {
	t.Helper()
	data, err := EncodeJPEG(SynthesizeImage(SynthConfig{Size: 16, Shapes: 2}, 1, 1), 90)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withFrameSize returns a copy of data whose SOF0 header declares w×h.
func withFrameSize(t testing.TB, data []byte, w, h uint16) []byte {
	t.Helper()
	sof := bytes.Index(data, []byte{0xFF, 0xC0})
	if sof < 0 {
		t.Fatal("no SOF0 marker")
	}
	out := append([]byte(nil), data...)
	binary.BigEndian.PutUint16(out[sof+5:], h)
	binary.BigEndian.PutUint16(out[sof+7:], w)
	return out
}

// TestDecodeJPEGIntoRejectsForgedDimensions: a 16² file whose SOF0
// claims 65280² pixels must fail before image/jpeg sizes its planes
// from the header (≈ 6 GB, allocated before the scan fails), and the
// header walk that catches it allocates nothing.
func TestDecodeJPEGIntoRejectsForgedDimensions(t *testing.T) {
	valid := tinyJPEG(t)
	forged := withFrameSize(t, valid, 0xFF00, 0xFF00)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeJPEGInto(&Image{}, forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 65280² header was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("rejecting the forged header allocated %d bytes, want < 1 MB", grew)
	}
	if w, h, ok := jpegFrameSize(valid); !ok || w != 16 || h != 16 {
		t.Errorf("jpegFrameSize(valid) = %d, %d, %v, want 16, 16, true", w, h, ok)
	}
	if n := testing.AllocsPerRun(10, func() { jpegFrameSize(valid) }); n != 0 {
		t.Errorf("the header walk allocates %.1f objects/call, want 0", n)
	}
}

// FuzzDecodeJPEGInto feeds arbitrary bytes to the decode entry point of
// every image workload. It must never panic; a stream it accepts must
// declare no more than maxDecodePixels, and the frame the header walk
// found must be the one image/jpeg decoded. The seed corpus holds a
// valid 16² file, one truncated mid-scan, one with forged 65280²
// dimensions and one with no frame header.
func FuzzDecodeJPEGInto(f *testing.F) {
	var dst Image
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := DecodeJPEGInto(&dst, data); err != nil {
			return
		}
		if dst.W*dst.H > maxDecodePixels {
			t.Fatalf("accepted a %dx%d frame, over %d pixels", dst.W, dst.H, maxDecodePixels)
		}
		if w, h, _ := jpegFrameSize(data); w != dst.W || h != dst.H {
			t.Fatalf("header walk found %dx%d, image/jpeg decoded %dx%d", w, h, dst.W, dst.H)
		}
	})
}
