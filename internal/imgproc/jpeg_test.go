package imgproc

import (
	"bytes"
	"image/jpeg"
	"os"
	"path/filepath"
	"testing"

	"trainbox/internal/jpegdec"
)

// fixtures returns the JPEGs under testdata/jpeg: image/jpeg's own
// 150×103 test images, copied from Go's src/image/testdata, which cover
// every chroma subsample ratio, progressive scans with and without
// separate DC progression, a truncated progressive stream, restart
// intervals, Adobe CMYK, Adobe RGB and grayscale with 1×1 and 2×2
// sampling.
func fixtures(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "jpeg", "*.jpeg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures under testdata/jpeg: %v", err)
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

// stdlibRGB is the oracle: image/jpeg's decode, converted pixel by
// pixel through At(x, y).RGBA() >> 8.
func stdlibRGB(t testing.TB, data []byte) *Image {
	t.Helper()
	src, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("image/jpeg: %v", err)
	}
	return genericRGB(src)
}

// testWindows returns windows of a w×h frame that start and end on and
// off block and MCU boundaries, from one pixel to the whole frame.
func testWindows(w, h int) [][4]int {
	out := [][4]int{
		{0, 0, w, h}, {0, 0, 1, 1}, {w - 1, h - 1, 1, 1},
		{0, 0, 16, 16}, {1, 1, 16, 16}, {7, 9, 17, 15}, {8, 8, 8, 8},
		{w - 17, h - 9, 17, 9}, {3, 0, 1, h}, {0, 5, w, 1},
		{(w - 16) / 2, (h - 16) / 2, 16, 16},
	}
	var in [][4]int
	for _, r := range out {
		if r[0] >= 0 && r[1] >= 0 && r[2] > 0 && r[3] > 0 && r[0]+r[2] <= w && r[1]+r[3] <= h {
			in = append(in, r)
		}
	}
	return in
}

// TestDecodeJPEGMatchesStdlibFixtures: every fixture decodes bit for bit
// as image/jpeg decodes it, full-frame and in every test window.
func TestDecodeJPEGMatchesStdlibFixtures(t *testing.T) {
	for name, data := range fixtures(t) {
		want := stdlibRGB(t, data)
		var got, crop Image
		if err := DecodeJPEGInto(&got, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s: full decode differs from image/jpeg", name)
			continue
		}
		for _, r := range testWindows(want.W, want.H) {
			if err := DecodeJPEGCropInto(&got, data, r[0], r[1], r[2], r[3]); err != nil {
				t.Fatalf("%s window %v: %v", name, r, err)
			}
			if err := CropInto(&crop, want, r[0], r[1], r[2], r[3]); err != nil {
				t.Fatal(err)
			}
			if got.W != crop.W || got.H != crop.H || !bytes.Equal(got.Pix, crop.Pix) {
				t.Errorf("%s window %v: differs from the crop of image/jpeg's decode", name, r)
			}
		}
	}
}

// TestDecodeJPEGCropIntoMatchesCrop runs every 16-aligned and odd
// window placement over a corpus-sized 256² 4:2:0 file and a 4:4:4
// one: each window decode equals the crop of the full decode, with
// one decoder reused throughout, so no stale plane leaks into a later
// window.
func TestDecodeJPEGCropIntoMatchesCrop(t *testing.T) {
	for name, data := range map[string][]byte{"420": synthJPEG(t, 3, 85), "444": synth444(t, 45)} {
		var full, got, want Image
		if err := DecodeJPEGInto(&full, data); err != nil {
			t.Fatal(err)
		}
		for _, size := range [][2]int{{ModelSize, ModelSize}, {16, 16}, {1, 37}} {
			for x := 0; x+size[0] <= full.W; x += 13 {
				y := (x * 7) % (full.H - size[1] + 1)
				if err := DecodeJPEGCropInto(&got, data, x, y, size[0], size[1]); err != nil {
					t.Fatal(err)
				}
				if err := CropInto(&want, &full, x, y, size[0], size[1]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("%s: window %dx%d@(%d,%d) differs from the crop", name, size[0], size[1], x, y)
				}
			}
		}
	}
}

// dropScans returns data without the scans that cover only component
// id, each a SOS segment and the entropy-coded bytes up to the next
// marker.
func dropScans(t *testing.T, data []byte, id byte) []byte {
	t.Helper()
	out := append([]byte(nil), data[:2]...)
	for i := 2; i+1 < len(data); {
		if data[i] != 0xFF {
			t.Fatalf("no marker at %d", i)
		}
		marker := data[i+1]
		if marker == 0xD9 {
			return append(out, data[i:]...)
		}
		if i+3 >= len(data) {
			break
		}
		end := i + 2 + (int(data[i+2])<<8 | int(data[i+3]))
		if marker == 0xDA { // SOS: the entropy-coded data runs to the next marker
			for end+1 < len(data) && (data[end] != 0xFF || data[end+1] == 0 || 0xD0 <= data[end+1] && data[end+1] <= 0xD7) {
				end++
			}
			if data[i+4] == 1 && data[i+5] == id {
				i = end
				continue
			}
		}
		out = append(out, data[i:end]...)
		i = end
	}
	t.Fatal("no EOI marker")
	return nil
}

// TestDecodeJPEGUnscannedComponentReadsZero: a progressive frame whose
// chroma components no scan covers decodes as image/jpeg decodes it,
// with those planes zero, although the pooled decoder's planes still
// hold the previous decode's chroma.
func TestDecodeJPEGUnscannedComponentReadsZero(t *testing.T) {
	fx := fixtures(t)
	data := fx["video-001.separate.dc.progression.progressive.jpeg"]
	for _, ids := range [][]byte{{3}, {2, 3}} {
		trimmed := data
		for _, id := range ids {
			trimmed = dropScans(t, trimmed, id)
		}
		if len(trimmed) >= len(data) {
			t.Fatalf("dropping components %v removed nothing", ids)
		}
		want := stdlibRGB(t, trimmed)
		for _, r := range [][4]int{{0, 0, want.W, want.H}, {33, 17, 40, 30}} {
			var got, crop Image
			if err := DecodeJPEGInto(&got, data); err != nil { // leaves chroma in the planes
				t.Fatal(err)
			}
			if err := DecodeJPEGCropInto(&got, trimmed, r[0], r[1], r[2], r[3]); err != nil {
				t.Fatal(err)
			}
			if err := CropInto(&crop, want, r[0], r[1], r[2], r[3]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Pix, crop.Pix) {
				t.Errorf("components %v unscanned, window %v: differs from image/jpeg", ids, r)
			}
		}
	}
}

// synth444 is a 4:4:4 file of side n, which image/jpeg's encoder
// cannot write.
func synth444(t testing.TB, n int) []byte {
	t.Helper()
	im := SynthesizeImage(SynthConfig{Size: n, Shapes: 4}, 3, 2)
	data, err := jpegdec.Encode(&jpegdec.Image{W: im.W, H: im.H, Pix: im.Pix}, 90)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeJPEGCropIntoRejectsBadWindows: a window that leaves the
// frame fails before the decoder runs, and the destination is left
// alone.
func TestDecodeJPEGCropIntoRejectsBadWindows(t *testing.T) {
	data := tinyJPEG(t) // 16²
	for _, r := range [][4]int{
		{0, 0, 0, 16}, {0, 0, 16, 0}, {-1, 0, 16, 16}, {0, -1, 16, 16},
		{1, 0, 16, 16}, {0, 1, 16, 16}, {0, 0, 17, 1},
		{1 << 62, 0, 1 << 62, 1}, {0, 0, -1 << 62, 1},
	} {
		dst := Image{W: 2, H: 1, Pix: []uint8{1, 2, 3, 4, 5, 6}}
		if err := DecodeJPEGCropInto(&dst, data, r[0], r[1], r[2], r[3]); err == nil {
			t.Errorf("window %v of a 16² frame was accepted", r)
		}
		if dst.W != 2 || dst.H != 1 {
			t.Errorf("window %v: a rejected decode resized dst to %dx%d", r, dst.W, dst.H)
		}
	}
}

// FuzzDecodeJPEGCropInto checks the window decode against the full
// one. For a stream DecodeJPEGInto accepts, the window (x, y, w, h)
// must decode to CropInto of the full decode when it lies inside the
// frame and fail when it does not; so must the window folded into the
// frame, which always lies inside. A stream the full decode rejects
// must be rejected in every window. Nothing may panic. The seeds are
// the testdata/jpeg fixtures with an inside and an outside window, a
// corpus-sized 256² file, a 4:4:4 file, and 16² files with a window
// one column too wide and with a forged 65280² header.
func FuzzDecodeJPEGCropInto(f *testing.F) {
	for _, data := range fixtures(f) {
		f.Add(data, 7, 9, 17, 15)
		f.Add(data, -1, 0, 16, 16)
	}
	f.Add(synthJPEG(f, 3, 85), 16, 16, ModelSize, ModelSize)
	f.Add(synth444(f, 45), 44, 44, 1, 1)
	f.Add(tinyJPEG(f), 0, 0, 17, 16)
	f.Add(withFrameSize(f, tinyJPEG(f), 0xFF00, 0xFF00), 0, 0, 16, 16)
	var full, got, want Image
	f.Fuzz(func(t *testing.T, data []byte, x, y, w, h int) {
		fullErr := DecodeJPEGInto(&full, data)
		check := func(x, y, w, h int) {
			err := DecodeJPEGCropInto(&got, data, x, y, w, h)
			inside := fullErr == nil && w > 0 && h > 0 && x >= 0 && y >= 0 && x <= full.W-w && y <= full.H-h
			switch {
			case !inside && err == nil:
				t.Fatalf("window %dx%d@(%d,%d) accepted (full decode: %dx%d, %v)", w, h, x, y, full.W, full.H, fullErr)
			case inside && err != nil:
				t.Fatalf("window %dx%d@(%d,%d) of a %dx%d frame: %v", w, h, x, y, full.W, full.H, err)
			case inside:
				if err := CropInto(&want, &full, x, y, w, h); err != nil {
					t.Fatal(err)
				}
				if got.W != w || got.H != h || !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("window %dx%d@(%d,%d) of a %dx%d frame differs from the crop", w, h, x, y, full.W, full.H)
				}
			}
		}
		check(x, y, w, h)
		if fullErr == nil {
			fold := func(v, n int) int { return int(uint(v) % uint(n)) }
			fx, fy := fold(x, full.W), fold(y, full.H)
			check(fx, fy, 1+fold(w, full.W-fx), 1+fold(h, full.H-fy))
		}
	})
}
