package jpegdec

import (
	"bytes"
	"image"
	"image/color"
	"image/jpeg"
	"math"
	"os"
	"path/filepath"
	"testing"

	"trainbox/internal/imgproc"
)

// fixtures returns imgproc's JPEG fixtures: image/jpeg's own 150×103
// test images in every chroma subsample ratio, progressive, with
// restarts, CMYK, RGB and grayscale.
func fixtures(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "imgproc", "testdata", "jpeg", "*.jpeg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures under imgproc/testdata/jpeg: %v", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// encode writes src with image/jpeg's encoder.
func encode(t *testing.T, src image.Image, quality int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, src, &jpeg.Options{Quality: quality}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// matchesStdlib requires Decode's pixels to equal image/jpeg's, read
// through At().RGBA() >> 8.
func matchesStdlib(t *testing.T, data []byte) {
	t.Helper()
	got, stats, err := NewDecoder().Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntropyNanos <= 0 {
		t.Errorf("entropy phase took %d ns", stats.EntropyNanos)
	}
	ref, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	b := ref.Bounds()
	if got.W != b.Dx() || got.H != b.Dy() {
		t.Fatalf("size %dx%d, image/jpeg %dx%d", got.W, got.H, b.Dx(), b.Dy())
	}
	for y := 0; y < got.H; y++ {
		for x := 0; x < got.W; x++ {
			r, g, bl, _ := ref.At(b.Min.X+x, b.Min.Y+y).RGBA()
			if pr, pg, pb := got.At(x, y); pr != uint8(r>>8) || pg != uint8(g>>8) || pb != uint8(bl>>8) {
				t.Fatalf("pixel (%d,%d) = %d,%d,%d, image/jpeg %d,%d,%d", x, y, pr, pg, pb, r>>8, g>>8, bl>>8)
			}
		}
	}
}

func TestDecodeMatchesStdlibOnSynthetic(t *testing.T) {
	for _, quality := range []int{60, 85, 95} {
		img := imgproc.SynthesizeImage(imgproc.SynthConfig{Size: 96, Shapes: 8, Quality: quality}, 3, 2)
		data, err := imgproc.EncodeJPEG(img, quality)
		if err != nil {
			t.Fatal(err)
		}
		matchesStdlib(t, data)
	}
}

// TestDecodeGradientAndFlat covers a flat image and a gradient whose
// size is no multiple of the MCU, so the 1×1 probe meets edge blocks.
func TestDecodeGradientAndFlat(t *testing.T) {
	flat := image.NewRGBA(image.Rect(0, 0, 40, 24))
	for i := 0; i < len(flat.Pix); i += 4 {
		copy(flat.Pix[i:], []uint8{120, 80, 200, 255})
	}
	matchesStdlib(t, encode(t, flat, 90))
	odd := image.NewRGBA(image.Rect(0, 0, 33, 17))
	for y := 0; y < 17; y++ {
		for x := 0; x < 33; x++ {
			odd.SetRGBA(x, y, color.RGBA{R: uint8(x * 7), G: uint8(y * 11), B: uint8(x + y), A: 255})
		}
	}
	matchesStdlib(t, encode(t, odd, 85))
}

func TestDecodeGrayscale(t *testing.T) {
	src := image.NewGray(image.Rect(0, 0, 32, 32))
	for i := range src.Pix {
		src.Pix[i] = uint8(i%32*8 + i/32)
	}
	matchesStdlib(t, encode(t, src, 90))
}

// TestDecoderReuseBitIdentical drives one Decoder across the fixtures
// twice and requires every image to equal imgproc.DecodeJPEGInto's.
func TestDecoderReuseBitIdentical(t *testing.T) {
	corpus := fixtures(t)
	dec := NewDecoder()
	var want imgproc.Image
	for pass := 0; pass < 2; pass++ {
		for name, data := range corpus {
			wantErr := imgproc.DecodeJPEGInto(&want, data)
			got, _, err := dec.Decode(data)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: Decode error %v, DecodeJPEGInto error %v", name, err, wantErr)
			}
			if err == nil && (got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix)) {
				t.Errorf("%s pass %d: Decode differs from DecodeJPEGInto", name, pass)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	data := fixtures(t)["video-001.jpeg"]
	cases := [][]byte{
		nil,
		[]byte("not a jpeg"),
		{0xFF, 0xD8},             // SOI only
		{0xFF, 0xD8, 0xFF, 0xD9}, // SOI+EOI, no scan
		data[:len(data)/2],       // truncated mid-scan
	}
	dec := NewDecoder()
	for i, data := range cases {
		if _, _, err := dec.Decode(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestDecoderRecoversAfterError checks that a failed decode does not
// poison the Decoder for the next good one.
func TestDecoderRecoversAfterError(t *testing.T) {
	data := fixtures(t)["video-001.q50.420.jpeg"]
	dec := NewDecoder()
	if _, _, err := dec.Decode([]byte{0xFF, 0xD8, 0x00}); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, _, err := dec.Decode(data[:len(data)/2]); err == nil {
		t.Fatal("truncated stream should fail")
	}
	var want imgproc.Image
	if err := imgproc.DecodeJPEGInto(&want, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := dec.Decode(data)
	if err != nil {
		t.Fatalf("decode after errors: %v", err)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Error("decode after errors differs from DecodeJPEGInto")
	}
}

// TestDecoderSteadyStateAllocFree: the Decoder holds both images and
// imgproc pools its decoder, so a warm Decode allocates nothing.
func TestDecoderSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	data, err := imgproc.EncodeJPEG(imgproc.SynthesizeImage(imgproc.DefaultSynthConfig(), 7, 1), 85)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	if _, _, err := dec.Decode(data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := dec.Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Decoder.Decode allocates %.1f objects/decode, want 0", allocs)
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
	dec := NewDecoder()
	var agg DecodeStats
	for i := 0; i < 5; i++ {
		_, stats, err := dec.Decode(data)
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

func TestDecodeStatsSerialShare(t *testing.T) {
	if (DecodeStats{}).SerialShare() != 0 {
		t.Error("zero stats share should be 0")
	}
	s := DecodeStats{EntropyNanos: 30, TransformNanos: 70}
	if math.Abs(s.SerialShare()-0.3) > 1e-12 {
		t.Errorf("share = %v", s.SerialShare())
	}
}
