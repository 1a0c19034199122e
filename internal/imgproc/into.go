package imgproc

import (
	"bytes"
	"fmt"
	"image"
	"image/jpeg"
	"math"
	"math/rand"
	"sync"

	"trainbox/internal/gauss"
)

// This file holds the image kernels — the engines of Table II. Each
// writes into a caller-provided destination, reusing its buffer
// capacity, so a steady-state prepare loop recycles one bounded working
// set instead of allocating per sample (DESIGN.md §12). Unless noted
// otherwise the destination must not alias the source.

// Reset reshapes the image to w×h, reusing Pix's capacity when it
// fits. Like NewImage it panics on a non-positive size; unlike NewImage
// the pixels are STALE — callers must overwrite every one they read.
func (im *Image) Reset(w, h int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	im.W, im.H = w, h
	n := w * h * 3
	if cap(im.Pix) < n {
		im.Pix = make([]uint8, n)
		return
	}
	im.Pix = im.Pix[:n]
}

// Reset reshapes the tensor to c×h×w, reusing Data's capacity when it
// fits. The cells are STALE — callers must overwrite every one they
// read.
func (t *Tensor) Reset(c, h, w int) {
	t.C, t.H, t.W = c, h, w
	n := c * h * w
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
		return
	}
	t.Data = t.Data[:n]
}

// maxDecodePixels bounds the frame a JPEG header may declare. The
// stdlib decoder sizes its planes from the header before it reads any
// scan data, so a few hundred forged bytes can claim 65280² pixels and
// gigabytes of memory. 1<<26 pixels (8192²) is 1024× the 256² images
// the workloads store and bounds one decode to a few hundred MB.
const maxDecodePixels = 1 << 26

// DecodeJPEGInto decodes JPEG bytes into an RGB image in dst, reusing
// its pixel buffer — the "Decoder" engine of Table II and the dominant
// CPU cost of image preparation (Section V-B). A header declaring more
// than maxDecodePixels is rejected before the decoder allocates. The
// stdlib decoder's YCbCr and Gray images are converted by walking their
// planes; any other type (CMYK) goes through the generic At(x,y).RGBA()
// path, which boxes a color.Color per pixel. All paths produce
// identical pixels.
func DecodeJPEGInto(dst *Image, data []byte) error {
	fw, fh, ok := jpegFrameSize(data)
	if !ok {
		return fmt.Errorf("imgproc: jpeg decode: no frame header")
	}
	if int64(fw)*int64(fh) > maxDecodePixels {
		return fmt.Errorf("imgproc: jpeg decode: %dx%d frame exceeds %d pixels", fw, fh, maxDecodePixels)
	}
	src, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("imgproc: jpeg decode: %w", err)
	}
	bounds := src.Bounds()
	w, h := bounds.Dx(), bounds.Dy()
	if w <= 0 || h <= 0 {
		return fmt.Errorf("imgproc: jpeg decoded to invalid size %dx%d", w, h)
	}
	dst.Reset(w, h)
	switch s := src.(type) {
	case *image.YCbCr:
		ycbcrInto(dst, s)
	case *image.Gray:
		grayInto(dst, s)
	default:
		for y := bounds.Min.Y; y < bounds.Max.Y; y++ {
			for x := bounds.Min.X; x < bounds.Max.X; x++ {
				r, g, b, _ := src.At(x, y).RGBA()
				dst.Set(x-bounds.Min.X, y-bounds.Min.Y, uint8(r>>8), uint8(g>>8), uint8(b>>8))
			}
		}
	}
	return nil
}

// ycbcrInto converts s into dst, which is sized to s's bounds, by
// walking the Y, Cb and Cr planes row by row with the fixed-point
// arithmetic of color.YCbCr.RGBA, so every pixel equals
// s.YCbCrAt(x, y).RGBA() >> 8. It covers every subsample ratio for the
// non-negative origins image/jpeg produces.
func ycbcrInto(dst *Image, s *image.YCbCr) {
	var hs uint // log2 of the horizontal chroma subsampling
	switch s.SubsampleRatio {
	case image.YCbCrSubsampleRatio422, image.YCbCrSubsampleRatio420:
		hs = 1
	case image.YCbCrSubsampleRatio411, image.YCbCrSubsampleRatio410:
		hs = 2
	}
	r := s.Rect
	w := r.Dx()
	// Pixel Min.X+i reads chroma column (m+i)>>hs of the row COffset
	// starts at.
	m := r.Min.X & (1<<hs - 1)
	for y := r.Min.Y; y < r.Max.Y; y++ {
		ys := s.Y[s.YOffset(r.Min.X, y):][:w]
		c := s.COffset(r.Min.X, y)
		cbs, crs := s.Cb[c:], s.Cr[c:]
		out := dst.Pix[(y-r.Min.Y)*w*3:][:w*3]
		// One chroma sample's terms serve the pixels that share it.
		for i, ci := 0, 0; i < w; ci++ {
			cb1 := int32(cbs[ci]) - 128
			cr1 := int32(crs[ci]) - 128
			rc, gc, bc := 91881*cr1, -22554*cb1-46802*cr1, 116130*cb1
			for end := min((ci+1)<<hs-m, w); i < end; i++ {
				yy1 := int32(ys[i]) * 0x10101
				p := out[3*i : 3*i+3 : 3*i+3]
				p[0], p[1], p[2] = rgb8(yy1+rc), rgb8(yy1+gc), rgb8(yy1+bc)
			}
		}
	}
}

// rgb8 is the top byte of color.YCbCr.RGBA's 16-bit channel for the
// unscaled sum v: v>>16 when v fits 24 bits, else 0 below and 255 above.
func rgb8(v int32) uint8 {
	if uint32(v)&0xff000000 == 0 {
		return uint8(v >> 16)
	}
	return uint8(^(v >> 31))
}

// grayInto copies s's luminance into all three channels of dst, which
// is sized to s's bounds — what color.Gray.RGBA >> 8 gives.
func grayInto(dst *Image, s *image.Gray) {
	r := s.Rect
	w := r.Dx()
	for y := r.Min.Y; y < r.Max.Y; y++ {
		row := s.Pix[s.PixOffset(r.Min.X, y):][:w]
		out := dst.Pix[(y-r.Min.Y)*w*3:][:w*3]
		for i, v := range row {
			p := out[3*i : 3*i+3 : 3*i+3]
			p[0], p[1], p[2] = v, v, v
		}
	}
}

// jpegFrameSize walks the marker segments of a JPEG stream to its first
// start-of-frame (SOFn) header and returns the declared width and
// height, without allocating. It skips what image/jpeg skips — stray
// bytes between segments, 0xFF fill bytes and restart markers — so the
// frame it finds is the one that decoder would size its planes from.
// ok is false when a scan, the end of the image or the end of the data
// comes first; the decoder rejects those streams too.
func jpegFrameSize(data []byte) (w, h int, ok bool) {
	if len(data) < 2 || data[0] != 0xFF || data[1] != 0xD8 { // SOI
		return 0, 0, false
	}
	for i := 2; i+1 < len(data); {
		marker := data[i+1]
		switch {
		case data[i] != 0xFF || marker == 0xFF:
			i++ // a stray byte, or a fill byte before the marker
			continue
		case marker == 0x00 || 0xD0 <= marker && marker <= 0xD7:
			i += 2 // a stuffed zero or RSTn: no length follows
			continue
		case marker == 0xD9 || marker == 0xDA: // EOI or SOS before any frame
			return 0, 0, false
		}
		seg := data[i+2:] // length (counting itself), then the body
		if len(seg) < 2 {
			return 0, 0, false
		}
		n := int(seg[0])<<8 | int(seg[1])
		if 0xC0 <= marker && marker <= 0xCF && marker != 0xC4 && marker != 0xC8 && marker != 0xCC {
			// SOFn — DHT, JPG and DAC share the range: precision,
			// height, width follow the length.
			if n < 7 || len(seg) < 7 {
				return 0, 0, false
			}
			return int(seg[5])<<8 | int(seg[6]), int(seg[3])<<8 | int(seg[4]), true
		}
		if n < 2 {
			return 0, 0, false
		}
		i += 2 + n
	}
	return 0, 0, false
}

// CropInto extracts the w×h window whose top-left corner is (x, y) into
// dst — the "Crop" engine of Table II.
func CropInto(dst *Image, im *Image, x, y, w, h int) error {
	if w <= 0 || h <= 0 || x < 0 || y < 0 || x+w > im.W || y+h > im.H {
		return fmt.Errorf("imgproc: crop %dx%d@(%d,%d) outside %dx%d", w, h, x, y, im.W, im.H)
	}
	dst.Reset(w, h)
	for row := 0; row < h; row++ {
		srcOff := ((y+row)*im.W + x) * 3
		dstOff := row * w * 3
		copy(dst.Pix[dstOff:dstOff+w*3], im.Pix[srcOff:srcOff+w*3])
	}
	return nil
}

// CenterCropInto extracts the centered w×h window into dst.
func CenterCropInto(dst *Image, im *Image, w, h int) error {
	return CropInto(dst, im, (im.W-w)/2, (im.H-h)/2, w, h)
}

// RandomCropInto extracts a uniformly random w×h window into dst. This
// is the paper's headline augmentation: a 256×256 image yields 32×32
// distinct 224×224 crops, which is why static pre-augmentation needs
// ~2.2 PB (Section III-D).
func RandomCropInto(dst *Image, im *Image, w, h int, rng *rand.Rand) error {
	if w > im.W || h > im.H {
		return fmt.Errorf("imgproc: random crop %dx%d larger than %dx%d", w, h, im.W, im.H)
	}
	x := rng.Intn(im.W - w + 1)
	y := rng.Intn(im.H - h + 1)
	return CropInto(dst, im, x, y, w, h)
}

// MirrorInto writes the horizontally flipped image into dst — the
// "Mirror" engine of Table II.
func MirrorInto(dst *Image, im *Image) {
	dst.Reset(im.W, im.H)
	row := im.W * 3
	for y := 0; y < im.H; y++ {
		src := im.Pix[y*row:][:row]
		out := dst.Pix[y*row:][:row]
		for i, j := 0, row-3; i < row; i, j = i+3, j-3 {
			p, q := src[i:i+3:i+3], out[j:j+3:j+3]
			q[0], q[1], q[2] = p[0], p[1], p[2]
		}
	}
}

// GaussianNoiseInto writes im plus clamped zero-mean Gaussian noise
// with the given standard deviation (in 8-bit counts) into dst — the
// "Gaussian noise" engine of Table II. The noise is gauss's 4,096-level
// quantized Gaussian (tails at ±3.67σ), and each call draws one Uint64
// from rng. A pixel becomes clampU8(v + σ·q) for its quantile q, which
// for an integer v is v + floor(σ·q) clamped to [0, 255]: the kernel
// adds those integer offsets from a table built once per σ. A nil rng
// or a stddev that is not positive (NaN included: it would key a new
// table per call) copies im unchanged. dst == im is allowed (in-place
// noising).
func GaussianNoiseInto(dst *Image, im *Image, stddev float64, rng *rand.Rand) {
	src := im.Pix
	if dst != im {
		dst.Reset(im.W, im.H)
	}
	if rng == nil || !(stddev > 0) {
		copy(dst.Pix, src)
		return
	}
	off := noiseOffsets(stddev)
	st := gauss.NewStream(rng)
	var idx [gauss.Block]uint16
	for base := 0; base < len(src); base += gauss.Block {
		in := src[base:min(base+gauss.Block, len(src))]
		out := dst.Pix[base:][:len(in)]
		st.Fill(idx[:len(in)])
		for i, v := range in {
			out[i] = uint8(min(max(int(v)+int(off[idx[i]]), 0), 255))
		}
	}
}

var (
	offsetsMu sync.Mutex
	offsets   = map[float64]*[gauss.Levels]int16{}
)

// noiseOffsets returns floor(σ·q) for every quantile q of gauss.Table,
// clamped to ±256, past which any 8-bit value saturates. A table is
// built on the first call with its σ and shared read-only after.
func noiseOffsets(sigma float64) *[gauss.Levels]int16 {
	offsetsMu.Lock()
	defer offsetsMu.Unlock()
	t := offsets[sigma]
	if t == nil {
		t = new([gauss.Levels]int16)
		for i, q := range gauss.Table {
			t[i] = int16(min(max(math.Floor(sigma*q), -256), 256))
		}
		offsets[sigma] = t
	}
	return t
}

// ToTensorInto casts the image to a float32 CHW tensor in dst, reusing
// dst's Data capacity — the "Cast" engine of Table II — normalizing
// each channel as (v/255 − mean[c]) / std[c]. Each output is a function
// of (channel, byte value) only, so the kernel computes that formula
// once per entry of a [3][256] table and writes the three planes in one
// pass over the pixels. Nil mean/std default to 0 and 1 (plain [0,1]
// scaling).
func ToTensorInto(dst *Tensor, im *Image, mean, std []float64) error {
	if mean == nil {
		mean = []float64{0, 0, 0}
	}
	if std == nil {
		std = []float64{1, 1, 1}
	}
	if len(mean) != 3 || len(std) != 3 {
		return fmt.Errorf("imgproc: mean/std must have 3 channels, got %d/%d", len(mean), len(std))
	}
	for c, s := range std {
		if s <= 0 {
			return fmt.Errorf("imgproc: std[%d] = %v must be positive", c, s)
		}
	}
	var lut [3][256]float32
	for c := range lut {
		for v := range lut[c] {
			lut[c][v] = float32((float64(v)/255 - mean[c]) / std[c])
		}
	}
	dst.Reset(3, im.H, im.W)
	plane := im.H * im.W
	r, g, b := dst.Data[:plane], dst.Data[plane:2*plane], dst.Data[2*plane:3*plane]
	pix := im.Pix[:3*plane]
	for i := range r {
		p := pix[3*i : 3*i+3 : 3*i+3]
		r[i], g[i], b[i] = lut[0][p[0]], lut[1][p[1]], lut[2][p[2]]
	}
	return nil
}
