package imgproc

import (
	"bytes"
	"image"
	"image/jpeg"
	"math/rand"
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
		got, err := DecodeJPEG(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s: fast path differs from generic At() path", name)
		}
	}
}

// TestIntoVariantsBitIdentical drives each *Into op with a reused
// destination across seeds and compares to the allocating originals.
func TestIntoVariantsBitIdentical(t *testing.T) {
	var dstImg Image
	var dstTen Tensor
	for seed := int64(0); seed < 4; seed++ {
		src := SynthesizeImage(DefaultSynthConfig(), seed, int(seed)%10)

		want, err := Crop(src, 10, 20, 100, 90)
		if err != nil {
			t.Fatal(err)
		}
		if err := CropInto(&dstImg, src, 10, 20, 100, 90); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dstImg.Pix, want.Pix) {
			t.Fatalf("seed %d: CropInto differs", seed)
		}

		want, err = CenterCrop(src, ModelSize, ModelSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := CenterCropInto(&dstImg, src, ModelSize, ModelSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dstImg.Pix, want.Pix) {
			t.Fatalf("seed %d: CenterCropInto differs", seed)
		}

		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		want, err = RandomCrop(src, ModelSize, ModelSize, r1)
		if err != nil {
			t.Fatal(err)
		}
		if err := RandomCropInto(&dstImg, src, ModelSize, ModelSize, r2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dstImg.Pix, want.Pix) {
			t.Fatalf("seed %d: RandomCropInto differs", seed)
		}

		wantM := Mirror(src)
		MirrorInto(&dstImg, src)
		if !bytes.Equal(dstImg.Pix, wantM.Pix) {
			t.Fatalf("seed %d: MirrorInto differs", seed)
		}

		r1 = rand.New(rand.NewSource(seed))
		r2 = rand.New(rand.NewSource(seed))
		wantN := GaussianNoise(src, 5, r1)
		GaussianNoiseInto(&dstImg, src, 5, r2)
		if !bytes.Equal(dstImg.Pix, wantN.Pix) {
			t.Fatalf("seed %d: GaussianNoiseInto differs", seed)
		}
		// In-place aliasing path.
		clone := src.Clone()
		r2 = rand.New(rand.NewSource(seed))
		GaussianNoiseInto(clone, clone, 5, r2)
		if !bytes.Equal(clone.Pix, wantN.Pix) {
			t.Fatalf("seed %d: in-place GaussianNoiseInto differs", seed)
		}

		wantR, err := Resize(src, ModelSize, ModelSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := ResizeInto(&dstImg, src, ModelSize, ModelSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dstImg.Pix, wantR.Pix) {
			t.Fatalf("seed %d: ResizeInto differs", seed)
		}

		wantT, err := ToTensor(src, ImagenetMean, ImagenetStd)
		if err != nil {
			t.Fatal(err)
		}
		if err := ToTensorInto(&dstTen, src, ImagenetMean, ImagenetStd); err != nil {
			t.Fatal(err)
		}
		if len(dstTen.Data) != len(wantT.Data) {
			t.Fatalf("seed %d: tensor size differs", seed)
		}
		for i := range wantT.Data {
			if dstTen.Data[i] != wantT.Data[i] {
				t.Fatalf("seed %d: ToTensorInto cell %d differs", seed, i)
			}
		}
	}

	// The destinations are warm by now: resize and cast reuse them and
	// allocate nothing per sample.
	src := SynthesizeImage(DefaultSynthConfig(), 1, 3)
	if n := testing.AllocsPerRun(10, func() {
		if err := ResizeInto(&dstImg, src, ModelSize, ModelSize); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm ResizeInto allocates %.1f objects/call, want 0", n)
	}
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
	if err := ResizeInto(&dst, src, 0, 10); err == nil {
		t.Error("zero-size ResizeInto should fail")
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
