package jpegdec

import (
	"bytes"
	"image"
	"image/color"
	"image/jpeg"
	"math"
	"testing"

	"trainbox/internal/imgproc"
)

// encodeRef encodes an RGBA image with the standard library at the given
// quality and returns the bytes plus the stdlib-decoded reference pixels.
func encodeRef(t *testing.T, src *image.RGBA, quality int) ([]byte, *image.YCbCr) {
	t.Helper()
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, src, &jpeg.Options{Quality: quality}); err != nil {
		t.Fatal(err)
	}
	ref, err := jpeg.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ycc, ok := ref.(*image.YCbCr)
	if !ok {
		t.Fatalf("stdlib decoded to %T", ref)
	}
	return buf.Bytes(), ycc
}

// maeVsStdlib decodes with this package and with the standard library
// and returns the mean absolute per-channel difference.
func maeVsStdlib(t *testing.T, data []byte) float64 {
	t.Helper()
	mine, stats, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntropyNanos < 0 || stats.TransformNanos < 0 {
		t.Fatal("negative phase timings")
	}
	ref, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	b := ref.Bounds()
	if mine.W != b.Dx() || mine.H != b.Dy() {
		t.Fatalf("size %dx%d, stdlib %dx%d", mine.W, mine.H, b.Dx(), b.Dy())
	}
	var sum float64
	for y := 0; y < mine.H; y++ {
		for x := 0; x < mine.W; x++ {
			r, g, bl, _ := ref.At(b.Min.X+x, b.Min.Y+y).RGBA()
			i := (y*mine.W + x) * 3
			sum += math.Abs(float64(mine.Pix[i]) - float64(r>>8))
			sum += math.Abs(float64(mine.Pix[i+1]) - float64(g>>8))
			sum += math.Abs(float64(mine.Pix[i+2]) - float64(bl>>8))
		}
	}
	return sum / float64(mine.W*mine.H*3)
}

func TestDecodeMatchesStdlibOnSynthetic(t *testing.T) {
	for _, quality := range []int{60, 85, 95} {
		img := imgproc.SynthesizeImage(imgproc.SynthConfig{Size: 96, Shapes: 8, Quality: quality}, 3, 2)
		data, err := imgproc.EncodeJPEG(img, quality)
		if err != nil {
			t.Fatal(err)
		}
		mae := maeVsStdlib(t, data)
		// Different IDCT/upsampling implementations round differently;
		// agreement within ~2 counts is decoder-correct.
		if mae > 2.5 {
			t.Errorf("quality %d: MAE vs stdlib = %.2f", quality, mae)
		}
	}
}

func TestDecodeGradientAndFlat(t *testing.T) {
	// A flat image: every pixel identical; decode must be near-exact.
	src := image.NewRGBA(image.Rect(0, 0, 40, 24))
	for y := 0; y < 24; y++ {
		for x := 0; x < 40; x++ {
			src.SetRGBA(x, y, color.RGBA{R: 120, G: 80, B: 200, A: 255})
		}
	}
	data, _ := encodeRef(t, src, 90)
	if mae := maeVsStdlib(t, data); mae > 1.5 {
		t.Errorf("flat image MAE = %.2f", mae)
	}
	// Non-multiple-of-MCU dimensions exercise edge cropping.
	src2 := image.NewRGBA(image.Rect(0, 0, 33, 17))
	for y := 0; y < 17; y++ {
		for x := 0; x < 33; x++ {
			src2.SetRGBA(x, y, color.RGBA{R: uint8(x * 7), G: uint8(y * 11), B: uint8(x + y), A: 255})
		}
	}
	data2, _ := encodeRef(t, src2, 85)
	if mae := maeVsStdlib(t, data2); mae > 3.5 {
		t.Errorf("odd-size image MAE = %.2f", mae)
	}
}

func TestDecodeGrayscale(t *testing.T) {
	src := image.NewGray(image.Rect(0, 0, 32, 32))
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			src.SetGray(x, y, color.Gray{Y: uint8(x*8 + y)})
		}
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, src, &jpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	if mae := maeVsStdlib(t, buf.Bytes()); mae > 1.5 {
		t.Errorf("grayscale MAE = %.2f", mae)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a jpeg"),
		{0xFF, 0xD8},             // SOI only
		{0xFF, 0xD8, 0xFF, 0xD9}, // SOI+EOI, no scan
	}
	for i, data := range cases {
		if _, _, err := Decode(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDecodeRejectsProgressive(t *testing.T) {
	// Hand-build a header that declares SOF2 (progressive).
	data := []byte{0xFF, 0xD8, 0xFF, 0xC2, 0x00, 0x0B, 8, 0, 8, 0, 8, 1, 1, 0x11, 0}
	if _, _, err := Decode(data); err == nil {
		t.Error("progressive header accepted")
	}
}

// TestEntropyPhaseIsSubstantial is the paper's Section V-B argument made
// measurable: a large fraction of decode time sits in the bit-serial
// Huffman walk that resists parallelization. The threshold is
// deliberately loose — the point is "substantial", not a specific split.
func TestEntropyPhaseIsSubstantial(t *testing.T) {
	img := imgproc.SynthesizeImage(imgproc.DefaultSynthConfig(), 5, 1) // 256×256
	data, err := imgproc.EncodeJPEG(img, 85)
	if err != nil {
		t.Fatal(err)
	}
	var agg DecodeStats
	for i := 0; i < 5; i++ {
		_, stats, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		agg.EntropyNanos += stats.EntropyNanos
		agg.TransformNanos += stats.TransformNanos
	}
	share := agg.SerialShare()
	if share < 0.05 || share > 0.95 {
		t.Errorf("serial entropy share = %.2f, want a substantial interior fraction", share)
	}
	t.Logf("serial (Huffman) share of decode: %.0f%%", 100*share)
}

func TestExtend(t *testing.T) {
	cases := []struct {
		v    int32
		s    int
		want int32
	}{
		{0, 0, 0},
		{1, 1, 1},
		{0, 1, -1},
		{0b011, 3, -4},
		{0b100, 3, 4},
		{0b111, 3, 7},
	}
	for _, c := range cases {
		if got := extend(c.v, c.s); got != c.want {
			t.Errorf("extend(%b, %d) = %d, want %d", c.v, c.s, got, c.want)
		}
	}
}

func TestHuffTableRejectsMismatch(t *testing.T) {
	var counts [16]int
	counts[0] = 2
	if err := (&huffTable{}).init(counts, []byte{1}); err == nil {
		t.Error("count/symbol mismatch accepted")
	}
}

func TestDecodeStatsSerialShare(t *testing.T) {
	if (DecodeStats{}).SerialShare() != 0 {
		t.Error("zero stats share should be 0")
	}
	s := DecodeStats{EntropyNanos: 30, TransformNanos: 70}
	if math.Abs(s.SerialShare()-0.3) > 1e-12 {
		t.Errorf("share = %v", s.SerialShare())
	}
}
