package imgproc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"trainbox/internal/gauss"
)

func synthJPEG(t testing.TB, seed int64, quality int) []byte {
	t.Helper()
	im := SynthesizeImage(DefaultSynthConfig(), seed, int(seed)%10)
	data, err := EncodeJPEG(im, quality)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// genericRGB is the reference conversion the plane walks replaced:
// At(x, y).RGBA() >> 8 per pixel, through a boxed color.Color.
func genericRGB(src image.Image) *Image {
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

// TestDecodeJPEGIntoMatchesGenericPath pins the plane walks (YCbCr,
// Gray) to the generic At(x,y).RGBA() reference they replaced, on
// 4:2:0 (image/jpeg's encoder), 4:4:4 (a baseline and a progressive
// fixture) and grayscale files.
func TestDecodeJPEGIntoMatchesGenericPath(t *testing.T) {
	decodeGeneric := func(data []byte) *Image {
		src, err := jpeg.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return genericRGB(src)
	}

	fx := fixtures(t)
	half := synthJPEG(t, 11, 85)
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
	for name, data := range map[string][]byte{
		"ycbcr-420":             half,
		"ycbcr-444":             fx["video-001.q50.444.jpeg"],
		"ycbcr-444-progressive": fx["video-001.q50.444.progressive.jpeg"],
		"gray":                  gray,
	} {
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

// TestPlaneWalkMatchesRGBA drives ycbcrInto and grayInto directly on
// images built as image.YCbCr / image.Gray with random planes: every
// subsample ratio, non-square sizes, and sub-images whose odd origins
// shift the chroma phase. Each must equal YCbCrAt(x, y).RGBA() >> 8.
func TestPlaneWalkMatchesRGBA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fill := func(b []uint8) {
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
	}
	check := func(name string, src image.Image, walk func(*Image)) {
		t.Helper()
		want := genericRGB(src)
		got := &Image{}
		got.Reset(want.W, want.H)
		walk(got)
		if !bytes.Equal(got.Pix, want.Pix) {
			for i := range want.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("%s: byte %d (pixel %d) = %d, want %d", name, i, i/3, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
	ratios := []image.YCbCrSubsampleRatio{
		image.YCbCrSubsampleRatio444, image.YCbCrSubsampleRatio422, image.YCbCrSubsampleRatio420,
		image.YCbCrSubsampleRatio440, image.YCbCrSubsampleRatio411, image.YCbCrSubsampleRatio410,
	}
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {13, 6}, {6, 13}, {37, 22}}
	subs := []image.Rectangle{image.Rect(1, 1, 6, 5), image.Rect(3, 2, 37, 21), image.Rect(2, 3, 5, 13)}
	for _, ratio := range ratios {
		for _, sz := range sizes {
			ycc := image.NewYCbCr(image.Rect(0, 0, sz[0], sz[1]), ratio)
			fill(ycc.Y)
			fill(ycc.Cb)
			fill(ycc.Cr)
			name := fmt.Sprintf("%v %dx%d", ratio, sz[0], sz[1])
			check(name, ycc, func(dst *Image) { ycbcrInto(dst, ycc, ycc.Rect) })
			for _, r := range subs {
				if !r.In(ycc.Rect) {
					continue
				}
				sub := ycc.SubImage(r).(*image.YCbCr)
				check(fmt.Sprintf("%s sub %v", name, r), sub, func(dst *Image) { ycbcrInto(dst, sub, sub.Rect) })
			}
		}
	}
	for _, sz := range sizes {
		g := image.NewGray(image.Rect(0, 0, sz[0], sz[1]))
		fill(g.Pix)
		check(fmt.Sprintf("gray %dx%d", sz[0], sz[1]), g, func(dst *Image) { grayInto(dst, g, g.Rect) })
		if r := image.Rect(1, 1, 6, 5); r.In(g.Rect) {
			sub := g.SubImage(r).(*image.Gray)
			check(fmt.Sprintf("gray %dx%d sub", sz[0], sz[1]), sub, func(dst *Image) { grayInto(dst, sub, sub.Rect) })
		}
	}
}

// TestYCbCrConversionExhaustive runs every (Y, Cb, Cr) triple through
// the plane walk — one 256×256 4:4:4 image per Y, with Cb along x and
// Cr along y — against color.YCbCr.RGBA, clamping branches included.
func TestYCbCrConversionExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("16.7M conversions in -short mode")
	}
	ycc := image.NewYCbCr(image.Rect(0, 0, 256, 256), image.YCbCrSubsampleRatio444)
	for i := range ycc.Cb {
		ycc.Cb[i], ycc.Cr[i] = uint8(i%256), uint8(i/256)
	}
	var got Image
	got.Reset(256, 256)
	for y := 0; y < 256; y++ {
		for i := range ycc.Y {
			ycc.Y[i] = uint8(y)
		}
		ycbcrInto(&got, ycc, ycc.Rect)
		for i := 0; i < 256*256; i++ {
			r, g, b, _ := color.YCbCr{Y: uint8(y), Cb: uint8(i % 256), Cr: uint8(i / 256)}.RGBA()
			if p := got.Pix[3*i : 3*i+3]; p[0] != uint8(r>>8) || p[1] != uint8(g>>8) || p[2] != uint8(b>>8) {
				t.Fatalf("Y %d Cb %d Cr %d: got %v, want [%d %d %d]", y, i%256, i/256, p, r>>8, g>>8, b>>8)
			}
		}
	}
}

// TestYCbCrPairsExhaustive runs every (Y, Cb, Cr) triple through both
// pixels of ycbcrInto's two-pixel body for 2× horizontal chroma — one
// 513×256 4:2:2 image per Y, with Cb along the chroma columns, Cr along
// y, Y at even columns and 255 − Y at odd ones, the odd last column
// taking the single-pixel tail — against color.YCbCr.RGBA.
func TestYCbCrPairsExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("33.6M conversions in -short mode")
	}
	const w, h = 513, 256
	ycc := image.NewYCbCr(image.Rect(0, 0, w, h), image.YCbCrSubsampleRatio422)
	for y := 0; y < h; y++ {
		for x := 0; x < ycc.CStride; x++ {
			ycc.Cb[y*ycc.CStride+x], ycc.Cr[y*ycc.CStride+x] = uint8(x), uint8(y)
		}
	}
	var got Image
	got.Reset(w, h)
	for lum := 0; lum < 256; lum++ {
		for i := range ycc.Y {
			ycc.Y[i] = uint8(lum)
			if i%ycc.YStride%2 == 1 {
				ycc.Y[i] = uint8(255 - lum)
			}
		}
		ycbcrInto(&got, ycc, ycc.Rect)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				c := ycc.YCbCrAt(x, y)
				r, g, b, _ := c.RGBA()
				if p := got.Pix[3*(y*w+x):][:3]; p[0] != uint8(r>>8) || p[1] != uint8(g>>8) || p[2] != uint8(b>>8) {
					t.Fatalf("Y %d Cb %d Cr %d at (%d, %d): got %v, want [%d %d %d]", c.Y, c.Cb, c.Cr, x, y, p, r>>8, g>>8, b>>8)
				}
			}
		}
	}
}

// randomImage returns a w×h image of uniformly random bytes.
func randomImage(w, h int, seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	im := NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Intn(256))
	}
	return im
}

// TestToTensorIntoMatchesFormula compares the lookup-table cast with
// the per-byte float formula it replaced, cell by cell and bit for bit.
func TestToTensorIntoMatchesFormula(t *testing.T) {
	for _, tc := range []struct {
		w, h      int
		mean, std []float64
	}{
		{37, 19, ImagenetMean, ImagenetStd},
		{1, 5, nil, nil},
		{8, 3, []float64{0.1, -0.3, 2}, []float64{0.7, 3, 1e-3}},
	} {
		im := randomImage(tc.w, tc.h, int64(tc.w))
		var ten Tensor
		if err := ToTensorInto(&ten, im, tc.mean, tc.std); err != nil {
			t.Fatal(err)
		}
		mean, std := tc.mean, tc.std
		if mean == nil {
			mean, std = []float64{0, 0, 0}, []float64{1, 1, 1}
		}
		for c := 0; c < 3; c++ {
			for y := 0; y < im.H; y++ {
				for x := 0; x < im.W; x++ {
					want := float32((float64(im.Pix[(y*im.W+x)*3+c])/255 - mean[c]) / std[c])
					if got := ten.Data[(c*im.H+y)*im.W+x]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%dx%d c%d (%d,%d) = %v, want %v", im.W, im.H, c, x, y, got, want)
					}
				}
			}
		}
	}
}

// TestMirrorIntoMatchesAtSet compares the slice mirror with the
// per-pixel At/Set loop it replaced.
func TestMirrorIntoMatchesAtSet(t *testing.T) {
	for _, sz := range [][2]int{{1, 1}, {1, 4}, {5, 1}, {37, 19}} {
		im := randomImage(sz[0], sz[1], 3)
		want := NewImage(im.W, im.H)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				r, g, b := im.At(x, y)
				want.Set(im.W-1-x, y, r, g, b)
			}
		}
		var got Image
		MirrorInto(&got, im)
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%dx%d: MirrorInto differs from the At/Set mirror", im.W, im.H)
		}
	}
}

// TestGaussianNoiseIntoDistribution noises 10⁶ mid-grey bytes at σ = 30,
// where no pixel clamps, so every added offset is floor(σ·q) for a
// table quantile q. The offsets must have the mean of floor(σZ) (−½;
// the float kernel's truncation had the same bias), a standard
// deviation within 0.5 % of σ, and a Kolmogorov–Smirnov distance to
// floor(σZ), Z ~ Φ, inside the sampling bound. The caller's rng must
// advance by one draw, and equal seeds must give equal bytes in place
// and out of place.
func TestGaussianNoiseIntoDistribution(t *testing.T) {
	const sigma, grey = 30.0, 128
	im := NewImage(1000, 334)
	for i := range im.Pix {
		im.Pix[i] = grey
	}
	rng := rand.New(rand.NewSource(21))
	var noisy Image
	GaussianNoiseInto(&noisy, im, sigma, rng)
	next := rand.New(rand.NewSource(21))
	next.Uint64()
	if rng.Uint64() != next.Uint64() {
		t.Error("GaussianNoiseInto did not advance the caller's rng by exactly one Uint64")
	}

	var hist [256]int // by offset + grey
	var sum, sq float64
	for _, v := range noisy.Pix {
		hist[v]++
		o := float64(int(v) - grey)
		sum, sq = sum+o, sq+o*o
	}
	n := float64(len(noisy.Pix))
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean+0.5) > 0.1 {
		t.Errorf("mean offset = %.4f, want −0.5 ± 0.1", mean)
	}
	if math.Abs(std/sigma-1) > 0.005 {
		t.Errorf("offset std = %.4f, want within 0.5%% of %v", std, sigma)
	}
	if hist[0] != 0 || hist[255] != 0 {
		t.Fatal("a pixel clamped: σ = 30 around 128 must stay inside (0, 255)")
	}
	// Both distribution functions step only at integers, so the distance
	// is the largest gap at one: P(floor(σZ) ≤ k) = Φ((k+1)/σ).
	var cum, ks float64
	for v, c := range hist {
		cum += float64(c) / n
		ks = max(ks, math.Abs(cum-normalCDF(float64(v-grey+1)/sigma)))
	}
	if bound := ksBound(len(noisy.Pix)); ks > bound {
		t.Errorf("KS distance to floor(σZ) = %.5f, want ≤ %.5f", ks, bound)
	}
	t.Logf("10⁶ offsets at σ=%v: mean %.4f, std %.4f, KS %.5f (%.2f/4096)", sigma, mean, std, ks, ks*4096)

	again := &Image{W: im.W, H: im.H, Pix: append([]uint8(nil), im.Pix...)}
	GaussianNoiseInto(again, again, sigma, rand.New(rand.NewSource(21)))
	if !bytes.Equal(again.Pix, noisy.Pix) {
		t.Error("same seed, in place: bytes differ from the out-of-place run")
	}
	GaussianNoiseInto(again, im, sigma, rand.New(rand.NewSource(22)))
	if bytes.Equal(again.Pix, noisy.Pix) {
		t.Error("a different seed gave identical noise")
	}
}

// noiseByBlocks is GaussianNoiseInto's first form, rebuilt from
// gauss.Stream.Next: the stream's indices are cut 320 at a time, each
// run from whole words low field first with the unused fields of a
// last partial word dropped, and a pixel becomes v + floor(σ·q)
// clamped to [0, 255], computed in float64 with no offset table.
func noiseByBlocks(dst, src []uint8, sigma float64, rng *rand.Rand) {
	const block = 320
	st := gauss.NewStream(rng)
	for lo := 0; lo < len(src); lo += block {
		var w uint64
		for i := lo; i < min(lo+block, len(src)); i++ {
			k := (i - lo) % gauss.PerWord
			if k == 0 {
				w = st.Next()
			}
			q := gauss.Table[w>>(k*gauss.Bits)&(gauss.Levels-1)]
			dst[i] = uint8(min(max(float64(src[i])+math.Floor(sigma*q), 0), 255))
		}
	}
}

// TestGaussianNoiseIntoMatchesBlockCutStream checks the word-fed kernel
// against noiseByBlocks bit for bit, in place and out of place, at
// every length up to 16 bytes and around a 224² crop's 150,528, at σ
// from almost nothing to saturating everything. Out of place needs
// whole pixels, so it runs at the lengths divisible by three.
func TestGaussianNoiseIntoMatchesBlockCutStream(t *testing.T) {
	var lengths []int
	for n := 0; n <= 16; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 150527, 150528, 150529)
	for _, sigma := range []float64{1e-9, 4, 300, math.Inf(1)} {
		for _, n := range lengths {
			seed := int64(n) + int64(sigma)
			src := make([]uint8, n)
			rand.New(rand.NewSource(seed)).Read(src)
			want := make([]uint8, n)
			noiseByBlocks(want, src, sigma, rand.New(rand.NewSource(seed)))

			inPlace := &Image{W: n / 3, H: 1, Pix: append([]uint8(nil), src...)}
			GaussianNoiseInto(inPlace, inPlace, sigma, rand.New(rand.NewSource(seed)))
			if !bytes.Equal(inPlace.Pix, want) {
				t.Fatalf("σ=%v, %d bytes, in place: differs from the block-cut stream", sigma, n)
			}
			if n == 0 || n%3 != 0 {
				continue
			}
			var out Image
			GaussianNoiseInto(&out, &Image{W: n / 3, H: 1, Pix: src}, sigma, rand.New(rand.NewSource(seed)))
			if !bytes.Equal(out.Pix, want) {
				t.Fatalf("σ=%v, %d bytes, out of place: differs from the block-cut stream", sigma, n)
			}
		}
	}
}

func normalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// ksBound is the Kolmogorov–Smirnov distance a table-driven draw of n
// values may show: the table's own quantization (½/4096, at the
// quantile midpoints) plus the 99.9 % critical value of the sampling
// noise, 1.95/√n.
func ksBound(n int) float64 { return 0.5/4096 + 1.95/math.Sqrt(float64(n)) }

// TestIntoVariantsBitIdentical drives each kernel with one destination
// reused across kernels, sizes and seeds and compares it with a fresh
// destination: stale capacity must never leak into the output.
func TestIntoVariantsBitIdentical(t *testing.T) {
	var dstImg Image
	var dstTen Tensor
	for seed := int64(0); seed < 4; seed++ {
		src := SynthesizeImage(DefaultSynthConfig(), seed, int(seed)%10)
		for name, op := range map[string]func(dst *Image, rng *rand.Rand) error{
			"CropInto":   func(dst *Image, _ *rand.Rand) error { return CropInto(dst, src, 10, 20, 100, 90) },
			"CenterCrop": func(dst *Image, _ *rand.Rand) error { return RandomCropInto(dst, src, ModelSize, ModelSize, nil) },
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

	// The destinations are warm by now (and the σ = 5 offset table
	// built): the mirror, noise and cast kernels allocate nothing per
	// sample.
	src := SynthesizeImage(DefaultSynthConfig(), 1, 3)
	rng := rand.New(rand.NewSource(1))
	for name, op := range map[string]func(){
		"MirrorInto":        func() { MirrorInto(&dstImg, src) },
		"GaussianNoiseInto": func() { GaussianNoiseInto(&dstImg, src, 5, rng) },
		"ToTensorInto": func() {
			if err := ToTensorInto(&dstTen, src, ImagenetMean, ImagenetStd); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if n := testing.AllocsPerRun(10, op); n != 0 {
			t.Errorf("warm %s allocates %.1f objects/call, want 0", name, n)
		}
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

// TestDecodeJPEGAllocs: a warm decode, full-frame or windowed,
// allocates nothing — the tables, block scratch and planes come from
// the pooled decoder and the pixels go into dst's buffer.
func TestDecodeJPEGAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	data := synthJPEG(t, 5, 85)
	prog := fixtures(t)["video-001.progressive.jpeg"]
	var dst Image
	for name, decode := range map[string]func() error{
		"full":        func() error { return DecodeJPEGInto(&dst, data) },
		"224²":        func() error { return DecodeJPEGCropInto(&dst, data, 11, 23, ModelSize, ModelSize) },
		"16²":         func() error { return DecodeJPEGCropInto(&dst, data, 100, 37, 16, 16) },
		"progressive": func() error { return DecodeJPEGInto(&dst, prog) },
	} {
		if err := decode(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() {
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: a warm decode allocates %.1f objects, want 0", name, n)
		}
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
// claims 65280² pixels must fail, full-frame or windowed, before the
// decoder sizes its planes from the header (≈ 6 GB, allocated before
// the scan fails), and the header walk that catches it allocates
// nothing.
func TestDecodeJPEGIntoRejectsForgedDimensions(t *testing.T) {
	valid := tinyJPEG(t)
	forged := withFrameSize(t, valid, 0xFF00, 0xFF00)
	for name, decode := range map[string]func() error{
		"full":   func() error { return DecodeJPEGInto(&Image{}, forged) },
		"window": func() error { return DecodeJPEGCropInto(&Image{}, forged, 0, 0, 16, 16) },
		"header": func() error { _, _, err := JPEGFrameSize(forged); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a 65280² header was accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: rejecting the forged header allocated %d bytes, want < 1 MB", name, grew)
		}
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
// declare no more than maxDecodePixels, the frame the header walk found
// must be the one image/jpeg decoded, and the pixels must equal the
// generic At().RGBA() conversion of that decode. The seed corpus holds
// a valid 16² 4:2:0 file, a 4:4:4 and a grayscale file, one truncated
// mid-scan, one with forged 65280² dimensions and one with no frame
// header (testdata/fuzz), and the testdata/jpeg fixtures.
func FuzzDecodeJPEGInto(f *testing.F) {
	for _, data := range fixtures(f) {
		f.Add(data)
	}
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
		src, err := jpeg.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("image/jpeg rejects a stream DecodeJPEGInto accepted: %v", err)
		}
		if !bytes.Equal(dst.Pix, genericRGB(src).Pix) {
			t.Fatalf("%T %dx%d: pixels differ from the generic At().RGBA() path", src, dst.W, dst.H)
		}
	})
}
