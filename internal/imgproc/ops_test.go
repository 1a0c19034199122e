package imgproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func gradientImage(w, h int) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, uint8(x%256), uint8(y%256), uint8((x+y)%256))
		}
	}
	return im
}

func TestCropExtractsExactWindow(t *testing.T) {
	im := gradientImage(16, 16)
	c := &Image{}
	if err := CropInto(c, im, 3, 5, 4, 6); err != nil {
		t.Fatal(err)
	}
	if c.W != 4 || c.H != 6 {
		t.Fatalf("crop size %dx%d", c.W, c.H)
	}
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			r, g, b := c.At(x, y)
			wr, wg, wb := im.At(x+3, y+5)
			if r != wr || g != wg || b != wb {
				t.Fatalf("pixel (%d,%d) = (%d,%d,%d), want (%d,%d,%d)", x, y, r, g, b, wr, wg, wb)
			}
		}
	}
}

func TestCropRejectsOutOfBounds(t *testing.T) {
	im := gradientImage(8, 8)
	cases := [][4]int{
		{-1, 0, 4, 4}, {0, -1, 4, 4}, {5, 0, 4, 4}, {0, 5, 4, 4}, {0, 0, 0, 4}, {0, 0, 4, 0}, {0, 0, 9, 9},
	}
	for i, c := range cases {
		if err := CropInto(&Image{}, im, c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCenterCrop(t *testing.T) {
	im := gradientImage(StoredSize, StoredSize)
	c := &Image{}
	if err := RandomCropInto(c, im, ModelSize, ModelSize, nil); err != nil {
		t.Fatal(err)
	}
	if x, y, err := CropOrigin(StoredSize, StoredSize, ModelSize, ModelSize, nil); err != nil || x != 16 || y != 16 {
		t.Errorf("CropOrigin(nil rng) = %d, %d, %v, want the centre 16, 16", x, y, err)
	}
	r, _, _ := c.At(0, 0)
	wr, _, _ := im.At(16, 16) // (256-224)/2 = 16
	if r != wr {
		t.Errorf("center crop origin wrong: %d vs %d", r, wr)
	}
}

func TestRandomCropAlwaysInBoundsProperty(t *testing.T) {
	im := gradientImage(StoredSize, StoredSize)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := &Image{}
		if err := RandomCropInto(c, im, ModelSize, ModelSize, rng); err != nil || c.W != ModelSize || c.H != ModelSize {
			return false
		}
		// Every crop row must be a contiguous slice of a source row:
		// verify the corner pixels exist somewhere consistent by checking
		// the gradient structure (r == x mod 256 relationship shifted).
		r0, g0, _ := c.At(0, 0)
		r1, g1, _ := c.At(ModelSize-1, 0)
		dx := int(r1) - int(r0)
		if dx < 0 {
			dx += 256
		}
		if dx != (ModelSize-1)%256 {
			return false
		}
		return g0 == g1 // same source row
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomCropTooLarge(t *testing.T) {
	im := gradientImage(8, 8)
	if err := RandomCropInto(&Image{}, im, 9, 4, rand.New(rand.NewSource(1))); err == nil {
		t.Error("oversized random crop accepted")
	}
}

func TestNumDistinctCropsMatchesPaperStorageAnalysis(t *testing.T) {
	// Section III-D: a 256×256 image yields 32×32 distinct 224×224 crops,
	// and 32·32·0.15 MB·14 M images ≈ 2.2 PB.
	n := NumDistinctCrops(StoredSize, StoredSize, ModelSize, ModelSize)
	if n != 33*33 {
		// (256-224+1)² = 33² = 1089; the paper rounds to 32×32.
		t.Fatalf("distinct crops = %d, want 33*33", n)
	}
	const mbPerCrop = 0.15
	const numImages = 14e6
	pb := float64(32*32) * mbPerCrop * numImages / 1e9
	if math.Abs(pb-2.15) > 0.1 {
		t.Errorf("storage estimate = %.2f PB, want ≈2.2", pb)
	}
}

func TestMirrorIsInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := NewImage(13, 7)
		for i := range im.Pix {
			im.Pix[i] = uint8(rng.Intn(256))
		}
		var m, back Image
		MirrorInto(&m, im)
		MirrorInto(&back, &m)
		for i := range im.Pix {
			if back.Pix[i] != im.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMirrorFlipsColumns(t *testing.T) {
	im := gradientImage(10, 3)
	m := &Image{}
	MirrorInto(m, im)
	for y := 0; y < 3; y++ {
		for x := 0; x < 10; x++ {
			r, g, b := m.At(x, y)
			wr, wg, wb := im.At(9-x, y)
			if r != wr || g != wg || b != wb {
				t.Fatalf("mirror mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestGaussianNoiseChangesPixelsButStaysClamped(t *testing.T) {
	im := gradientImage(32, 32)
	noisy := &Image{}
	GaussianNoiseInto(noisy, im, 20, rand.New(rand.NewSource(9)))
	if noisy.W != im.W || noisy.H != im.H {
		t.Fatal("size changed")
	}
	diff := 0
	for i := range im.Pix {
		if noisy.Pix[i] != im.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("noise changed nothing")
	}
	// Original untouched.
	r, _, _ := im.At(5, 5)
	if r != 5 {
		t.Error("GaussianNoiseInto modified its source")
	}
}

func TestGaussianNoiseNoopCases(t *testing.T) {
	im := gradientImage(4, 4)
	for _, c := range []struct {
		stddev float64
		rng    *rand.Rand
	}{{0, rand.New(rand.NewSource(1))}, {10, nil}, {math.NaN(), rand.New(rand.NewSource(1))}} {
		out := &Image{}
		GaussianNoiseInto(out, im, c.stddev, c.rng)
		for i := range im.Pix {
			if out.Pix[i] != im.Pix[i] {
				t.Fatal("noop noise changed pixels")
			}
		}
	}
}

func TestToTensorLayoutAndScaling(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 255, 0, 0)
	im.Set(1, 0, 0, 255, 0)
	im.Set(0, 1, 0, 0, 255)
	ten := &Tensor{}
	if err := ToTensorInto(ten, im, nil, nil); err != nil {
		t.Fatal(err)
	}
	if ten.C != 3 || ten.H != 2 || ten.W != 2 {
		t.Fatalf("tensor shape %dx%dx%d", ten.C, ten.H, ten.W)
	}
	if ten.At(0, 0, 0) != 1 || ten.At(1, 0, 1) != 1 || ten.At(2, 1, 0) != 1 {
		t.Error("channel layout wrong")
	}
	if ten.At(0, 1, 1) != 0 {
		t.Error("zero pixel not zero")
	}
}

func TestToTensorNormalization(t *testing.T) {
	im := NewImage(1, 1)
	im.Set(0, 0, 128, 128, 128)
	ten := &Tensor{}
	if err := ToTensorInto(ten, im, ImagenetMean, ImagenetStd); err != nil {
		t.Fatal(err)
	}
	want := (128.0/255 - ImagenetMean[0]) / ImagenetStd[0]
	if math.Abs(float64(ten.At(0, 0, 0))-want) > 1e-6 {
		t.Errorf("normalized = %v, want %v", ten.At(0, 0, 0), want)
	}
}

func TestToTensorRejectsBadParams(t *testing.T) {
	im := NewImage(1, 1)
	if err := ToTensorInto(&Tensor{}, im, []float64{0}, nil); err == nil {
		t.Error("short mean accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, std := range []float64{0, -1, nan, inf, -inf} {
		if err := ToTensorInto(&Tensor{}, im, nil, []float64{1, 1, std}); err == nil {
			t.Errorf("std %v accepted", std)
		}
	}
	for _, mean := range []float64{nan, inf, -inf} {
		if err := ToTensorInto(&Tensor{}, im, []float64{mean, 0, 0}, nil); err == nil {
			t.Errorf("mean %v accepted", mean)
		}
	}
}

func TestTensorBytesMatchesPaperDataLoadSize(t *testing.T) {
	// Section III-C: a 224×224 RGB float tensor is ~0.15 MB raw ×4 for
	// float32 = 602,112 bytes, the per-sample accelerator load.
	im := NewImage(ModelSize, ModelSize)
	ten := &Tensor{}
	if err := ToTensorInto(ten, im, nil, nil); err != nil {
		t.Fatal(err)
	}
	if ten.Bytes() != 602112 {
		t.Errorf("tensor bytes = %d, want 602112", ten.Bytes())
	}
}

func TestJPEGRoundTripApproximatesPixels(t *testing.T) {
	im := SynthesizeImage(DefaultSynthConfig(), 5, 3)
	data, err := EncodeJPEG(im, 90)
	if err != nil {
		t.Fatal(err)
	}
	back := &Image{}
	if err := DecodeJPEGInto(back, data); err != nil {
		t.Fatal(err)
	}
	if back.W != im.W || back.H != im.H {
		t.Fatalf("decoded size %dx%d", back.W, back.H)
	}
	// Lossy but close: mean absolute error below 8 counts.
	var mae float64
	for i := range im.Pix {
		mae += math.Abs(float64(im.Pix[i]) - float64(back.Pix[i]))
	}
	mae /= float64(len(im.Pix))
	if mae > 8 {
		t.Errorf("JPEG round-trip MAE = %v", mae)
	}
}

func TestDecodeJPEGRejectsGarbage(t *testing.T) {
	if err := DecodeJPEGInto(&Image{}, []byte("not a jpeg")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSynthesizedJPEGSizeIsRealistic(t *testing.T) {
	// Stored 256×256 JPEGs should land in the tens-of-KB range the
	// storage model assumes (10–80 KB).
	var total int
	for seed := int64(0); seed < 8; seed++ {
		im := SynthesizeImage(DefaultSynthConfig(), seed, int(seed)%10)
		data, err := EncodeJPEG(im, DefaultSynthConfig().Quality)
		if err != nil {
			t.Fatal(err)
		}
		total += len(data)
	}
	avg := total / 8
	if avg < 5_000 || avg > 100_000 {
		t.Errorf("average JPEG size = %d bytes, want 10–80 KB scale", avg)
	}
}

func TestSynthesizeImageDeterministicPerSeed(t *testing.T) {
	a := SynthesizeImage(DefaultSynthConfig(), 3, 1)
	b := SynthesizeImage(DefaultSynthConfig(), 3, 1)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed, different image")
		}
	}
	c := SynthesizeImage(DefaultSynthConfig(), 4, 1)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds, identical image")
	}
}

func TestSynthesizeStripedProperties(t *testing.T) {
	cfg := SynthConfig{Size: 64}
	a := SynthesizeStriped(cfg, 1, 0)
	b := SynthesizeStriped(cfg, 1, 0)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("striped synthesis not deterministic")
		}
	}
	// Grayscale: all three channels equal.
	for y := 0; y < 64; y += 7 {
		for x := 0; x < 64; x += 7 {
			r, g, bl := a.At(x, y)
			if r != g || g != bl {
				t.Fatal("striped image is not grayscale")
			}
		}
	}
	// Equal mean intensity across classes (the no-shortcut property).
	mean := func(im *Image) float64 {
		var s float64
		for _, v := range im.Pix {
			s += float64(v)
		}
		return s / float64(len(im.Pix))
	}
	m0 := mean(SynthesizeStriped(cfg, 5, 0))
	m2 := mean(SynthesizeStriped(cfg, 5, 2))
	if math.Abs(m0-m2) > 12 {
		t.Errorf("class means differ too much: %v vs %v", m0, m2)
	}
	// Different classes produce different stripe patterns.
	c0 := SynthesizeStriped(cfg, 5, 0)
	c2 := SynthesizeStriped(cfg, 5, 2)
	same := true
	for i := range c0.Pix {
		if c0.Pix[i] != c2.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("classes 0 and 2 produced identical stripes")
	}
}

func TestClassesProduceDifferentImages(t *testing.T) {
	a := SynthesizeImage(DefaultSynthConfig(), 3, 0)
	b := SynthesizeImage(DefaultSynthConfig(), 3, 5)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different classes, identical image")
	}
}

func TestNewImageRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewImage(0,5) did not panic")
		}
	}()
	NewImage(0, 5)
}
