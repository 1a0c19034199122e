package imgproc

import (
	"bytes"
	"image/jpeg"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
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
// window placement over a corpus-sized 256² 4:2:0 file and the
// 150×103 4:4:4 baseline fixture: each window decode equals the crop
// of the full decode, with one decoder reused throughout, so no stale
// plane leaks into a later window.
func TestDecodeJPEGCropIntoMatchesCrop(t *testing.T) {
	for name, data := range map[string][]byte{"420": synthJPEG(t, 3, 85), "444": fixtures(t)["video-001.jpeg"]} {
		var full, got, want Image
		if err := DecodeJPEGInto(&full, data); err != nil {
			t.Fatal(err)
		}
		// The model window clamped to the frame, the frame itself, the
		// largest windows with an offset (one pixel short each way, at
		// offsets 0 and 1) and an odd-sized near-full window. No 4:4:4
		// fixture reaches 224² (the fixture is 150×103, and image/jpeg
		// encodes colour only as 4:2:0), so there the model window is the
		// whole frame, and a 224² window inside a larger 4:4:4 frame is
		// left untested.
		for _, size := range [][2]int{{min(ModelSize, full.W), min(ModelSize, full.H)}, {16, 16}, {1, 37},
			{full.W, full.H}, {full.W - 1, full.H - 1}, {(full.W - 14) | 1, (full.H - 2) | 1}} {
			for x := 0; x+size[0] <= full.W; x += min(13, max(1, full.W-size[0])) {
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
// corpus-sized 256² file, the 4:4:4 baseline fixture with a 1×1 window
// in its far corner, and 16² files with a window one column too wide
// and with a forged 65280² header.
func FuzzDecodeJPEGCropInto(f *testing.F) {
	fx := fixtures(f)
	for _, data := range fx {
		f.Add(data, 7, 9, 17, 15)
		f.Add(data, -1, 0, 16, 16)
	}
	f.Add(synthJPEG(f, 3, 85), 16, 16, ModelSize, ModelSize)
	f.Add(fx["video-001.jpeg"], 149, 102, 1, 1)
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

// reconstructDense is reconstruct as image/jpeg does it: all 64
// coefficients dequantized, the full idct, then the level shift and
// clip of every sample.
func reconstructDense(b block, qt *block) (px [blockSize]uint8) {
	for zig := 0; zig < blockSize; zig++ {
		b[unzig[zig]] *= qt[zig]
	}
	idct(&b)
	for i, c := range b {
		if c < -128 {
			c = 0
		} else if c > 127 {
			c = 255
		} else {
			c += 128
		}
		px[i] = uint8(c)
	}
	return px
}

// FuzzReconstructBlockMatchesDense checks reconstruct, which
// dequantizes only the first n zig-zag coefficients and skips idct for
// a DC-only block, against reconstructDense bit for bit. Each input
// seeds 64 blocks. A block carries coefficients up to a random n in
// 0–64, half of the time at most 2 (the corpus's common case), of a
// random width: mostly up to the 12 bits of an 8-bit JPEG, sometimes
// up to 32, so int32-overflowing products and sums occur. Its
// quantization table is drawn from 1–16, 1–255 or 1–65,535 with the
// extremes over-represented: the narrow tables keep samples off the
// clip, where a rounding slip shows. The block is written into a wider
// plane whose other bytes must stay untouched.
func FuzzReconstructBlockMatchesDense(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	const stride = 11
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for range 64 {
			n := rng.Intn(blockSize + 1)
			if rng.Intn(2) == 0 {
				n = rng.Intn(3)
			}
			width := 1 + rng.Intn(12)
			if rng.Intn(4) == 0 {
				width = 1 + rng.Intn(32)
			}
			qmax := []int32{16, 255, 65535}[rng.Intn(3)]
			var b, qt block
			for zig := range qt {
				switch rng.Intn(8) {
				case 0:
					qt[zig] = 1
				case 1:
					qt[zig] = qmax
				default:
					qt[zig] = 1 + rng.Int31n(qmax)
				}
			}
			for zig := range n {
				b[unzig[zig]] = int32(rng.Uint32()) >> (32 - width)
			}
			want := reconstructDense(b, &qt)

			plane := bytes.Repeat([]byte{0xA5}, 9*stride)
			reconstruct(&b, &qt, n, plane[stride+1:], stride)
			for i, v := range plane {
				y, x := i/stride-1, i%stride-1
				if y < 0 || y >= 8 || x < 0 || x >= 8 {
					if v != 0xA5 {
						t.Fatalf("n=%d: byte (%d, %d) outside the block written", n, x, y)
					}
				} else if v != want[8*y+x] {
					t.Fatalf("n=%d, width %d, quant ≤ %d: sample (%d, %d) = %d, the dense path gives %d", n, width, qmax, x, y, v, want[8*y+x])
				}
			}
		}
	})
}
