package imgproc

import (
	"fmt"
	"image"
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
// decoder sizes its planes from the header before it reads any scan
// data, so a few hundred forged bytes can claim 65280² pixels and
// gigabytes of memory. 1<<26 pixels (8192²) is 1024× the 256² images
// the workloads store and bounds one decode to a few hundred MB.
const maxDecodePixels = 1 << 26

// JPEGFrameSize returns the width and height a JPEG stream's frame
// header declares, without decoding or allocating. It fails as
// DecodeJPEGInto does on a stream with no frame header or one declaring
// more than maxDecodePixels, so a caller can place a crop before it
// decodes.
func JPEGFrameSize(data []byte) (w, h int, err error) {
	w, h, ok := jpegFrameSize(data)
	if !ok {
		return 0, 0, fmt.Errorf("imgproc: jpeg decode: no frame header")
	}
	if int64(w)*int64(h) > maxDecodePixels {
		return 0, 0, fmt.Errorf("imgproc: jpeg decode: %dx%d frame exceeds %d pixels", w, h, maxDecodePixels)
	}
	return w, h, nil
}

// DecodeJPEGInto decodes JPEG bytes into an RGB image in dst, reusing
// its pixel buffer — the "Decoder" engine of Table II and the dominant
// CPU cost of image preparation (Section V-B). It is DecodeJPEGCropInto
// over the whole frame.
func DecodeJPEGInto(dst *Image, data []byte) error {
	w, h, err := JPEGFrameSize(data)
	if err != nil {
		return err
	}
	return DecodeJPEGCropInto(dst, data, 0, 0, w, h)
}

// DecodeJPEGCropInto decodes the w×h window whose top-left corner is
// (x, y) of a JPEG stream into dst, reusing its pixel buffer; the
// pixels equal CropInto of the full decode, and image/jpeg's. It
// entropy-decodes every MCU, the serial part of decode, but
// dequantizes, inverse-transforms and colour-converts only the blocks
// the window reads. A header declaring more than maxDecodePixels, or a
// window outside the frame, is rejected before the decoder allocates;
// a warm decode allocates nothing.
func DecodeJPEGCropInto(dst *Image, data []byte, x, y, w, h int) error {
	fw, fh, err := JPEGFrameSize(data)
	if err != nil {
		return err
	}
	if w <= 0 || h <= 0 || x < 0 || y < 0 || x > fw-w || y > fh-h {
		return fmt.Errorf("imgproc: jpeg decode: window %dx%d@(%d,%d) outside the %dx%d frame", w, h, x, y, fw, fh)
	}
	d := decoders.Get().(*decoder)
	err = d.decode(dst, data, image.Rect(x, y, x+w, y+h))
	d.data = nil // do not pin the caller's stream in the pool
	decoders.Put(d)
	if err != nil {
		return fmt.Errorf("imgproc: jpeg decode: %w", err)
	}
	return nil
}

// ycbcrInto converts the rectangle r of s into dst, which is sized to
// r, by walking the Y, Cb and Cr planes row by row with the fixed-point
// arithmetic of color.YCbCr.RGBA, so every pixel equals
// s.YCbCrAt(x, y).RGBA() >> 8. It covers every subsample ratio for
// non-negative origins.
func ycbcrInto(dst *Image, s *image.YCbCr, r image.Rectangle) {
	var hs uint // log2 of the horizontal chroma subsampling
	switch s.SubsampleRatio {
	case image.YCbCrSubsampleRatio422, image.YCbCrSubsampleRatio420:
		hs = 1
	case image.YCbCrSubsampleRatio411, image.YCbCrSubsampleRatio410:
		hs = 2
	}
	w := r.Dx()
	// Pixel Min.X+i reads chroma column (m+i)>>hs of the row COffset
	// starts at.
	m := r.Min.X & (1<<hs - 1)
	for y := r.Min.Y; y < r.Max.Y; y++ {
		ys := s.Y[s.YOffset(r.Min.X, y):][:w]
		c := s.COffset(r.Min.X, y)
		cbs, crs := s.Cb[c:], s.Cr[c:]
		out := dst.Pix[(y-r.Min.Y)*w*3:][:w*3]
		if hs == 1 {
			ycbcrPairs(out, ys, cbs, crs, m)
			continue
		}
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

// ycbcrPairs converts one row of 2× horizontally subsampled YCbCr, the
// 4:2:0 and 4:2:2 of the corpus and of most cameras, with a two-pixel
// body: pixel i reads chroma sample (m+i)>>1, so after an odd first
// pixel (m == 1) each pair of pixels shares one sample's terms.
func ycbcrPairs(out, ys, cbs, crs []uint8, m int) {
	i, ci := 0, 0
	if m == 1 && len(ys) > 0 {
		ycbcrPixel(out[:3], ys[0], cbs[0], crs[0])
		i, ci = 1, 1
	}
	for ; i+1 < len(ys); i, ci = i+2, ci+1 {
		cb1 := int32(cbs[ci]) - 128
		cr1 := int32(crs[ci]) - 128
		rc, gc, bc := 91881*cr1, -22554*cb1-46802*cr1, 116130*cb1
		y0, y1 := int32(ys[i])*0x10101, int32(ys[i+1])*0x10101
		p := out[3*i : 3*i+6 : 3*i+6]
		p[0], p[1], p[2] = rgb8(y0+rc), rgb8(y0+gc), rgb8(y0+bc)
		p[3], p[4], p[5] = rgb8(y1+rc), rgb8(y1+gc), rgb8(y1+bc)
	}
	if i < len(ys) {
		ycbcrPixel(out[3*i:3*i+3], ys[i], cbs[ci], crs[ci])
	}
}

// ycbcrPixel converts one pixel.
func ycbcrPixel(p []uint8, y, cb, cr uint8) {
	yy1 := int32(y) * 0x10101
	cb1, cr1 := int32(cb)-128, int32(cr)-128
	p[0], p[1], p[2] = rgb8(yy1+91881*cr1), rgb8(yy1-22554*cb1-46802*cr1), rgb8(yy1+116130*cb1)
}

// rgb8 is the top byte of color.YCbCr.RGBA's 16-bit channel for the
// unscaled sum v: v>>16 when v fits 24 bits, else 0 below and 255 above.
func rgb8(v int32) uint8 {
	if uint32(v)&0xff000000 == 0 {
		return uint8(v >> 16)
	}
	return uint8(^(v >> 31))
}

// grayInto copies the rectangle r of s's luminance into all three
// channels of dst, which is sized to r — what color.Gray.RGBA >> 8
// gives.
func grayInto(dst *Image, s *image.Gray, r image.Rectangle) {
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

// rgbInto copies the rectangle r of an RGB frame, whose R, G and B
// planes sit where s's Y, Cb and Cr would, into dst, which is sized to
// r — image/jpeg's RGBA image of such a frame.
func rgbInto(dst *Image, s *image.YCbCr, r image.Rectangle) {
	i := 0
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x, i = x+1, i+3 {
			c := s.COffset(x, y)
			dst.Pix[i], dst.Pix[i+1], dst.Pix[i+2] = s.Y[s.YOffset(x, y)], s.Cb[c], s.Cr[c]
		}
	}
}

// cmykInto converts the rectangle r of a 4-component frame into dst,
// which is sized to r, as color.CMYK.RGBA >> 8 does for image/jpeg's
// CMYK image of it. The frame's planes are Adobe-inverted ink (255 is
// none); with ycck the first three are YCbCr, whose RGB stands for the
// ink inverted once more. black is the full-resolution fourth plane.
func cmykInto(dst *Image, s *image.YCbCr, black []byte, stride int, ycck bool, r image.Rectangle) {
	i := 0
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x, i = x+1, i+3 {
			c := s.COffset(x, y)
			// v is 255 − ink for each of cyan, magenta and yellow.
			v0, v1, v2 := s.Y[s.YOffset(x, y)], s.Cb[c], s.Cr[c]
			if ycck {
				yy1 := int32(v0) * 0x10101
				cb1, cr1 := int32(v1)-128, int32(v2)-128
				v0, v1, v2 = 255-rgb8(yy1+91881*cr1), 255-rgb8(yy1-22554*cb1-46802*cr1), 255-rgb8(yy1+116130*cb1)
			}
			k := uint32(black[y*stride+x]) * 0x101 // 0xffff − 0x101·K
			dst.Pix[i] = uint8(uint32(v0) * 0x101 * k / 0xffff >> 8)
			dst.Pix[i+1] = uint8(uint32(v1) * 0x101 * k / 0xffff >> 8)
			dst.Pix[i+2] = uint8(uint32(v2) * 0x101 * k / 0xffff >> 8)
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

// CropOrigin returns the top-left corner of a w×h crop of an imW×imH
// image: uniformly random when rng is non-nil, drawing rng.Intn for x
// and then for y, and centred when rng is nil. It is the one place a
// crop is placed, so a caller that decodes only the crop's window
// (DecodeJPEGCropInto) draws exactly what RandomCropInto draws.
func CropOrigin(imW, imH, w, h int, rng *rand.Rand) (x, y int, err error) {
	if w <= 0 || h <= 0 || w > imW || h > imH {
		return 0, 0, fmt.Errorf("imgproc: crop %dx%d does not fit %dx%d", w, h, imW, imH)
	}
	if rng == nil {
		return (imW - w) / 2, (imH - h) / 2, nil
	}
	return rng.Intn(imW - w + 1), rng.Intn(imH - h + 1), nil
}

// RandomCropInto extracts a uniformly random w×h window into dst, or
// the centred one when rng is nil. This is the paper's headline
// augmentation: a 256×256 image yields 32×32 distinct 224×224 crops,
// which is why static pre-augmentation needs ~2.2 PB (Section III-D).
func RandomCropInto(dst *Image, im *Image, w, h int, rng *rand.Rand) error {
	x, y, err := CropOrigin(im.W, im.H, w, h, rng)
	if err != nil {
		return err
	}
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
// adds those integer offsets from a table built once per σ and clamps
// through another, five pixels to a stream word. A nil rng or a stddev
// that is not positive (NaN included: it would key a new table per
// call) copies im unchanged. dst == im is allowed (in-place noising).
func GaussianNoiseInto(dst *Image, im *Image, stddev float64, rng *rand.Rand) {
	src := im.Pix
	if dst != im {
		dst.Reset(im.W, im.H)
	}
	if rng == nil || !(stddev > 0) {
		copy(dst.Pix, src)
		return
	}
	off, sat := noiseOffsets(stddev), &saturate
	_, _ = off[0], sat[0] // one nil check each, ahead of the loop
	st := gauss.NewStream(rng)
	out := dst.Pix[:len(src)]
	const mask = gauss.Levels - 1
	for len(src) >= gauss.PerWord {
		w := st.Next()
		in, o := src[:gauss.PerWord:gauss.PerWord], out[:gauss.PerWord:gauss.PerWord]
		o[0] = sat[(uint(in[0])+uint(off[w&mask]))&1023]
		o[1] = sat[(uint(in[1])+uint(off[w>>gauss.Bits&mask]))&1023]
		o[2] = sat[(uint(in[2])+uint(off[w>>(2*gauss.Bits)&mask]))&1023]
		o[3] = sat[(uint(in[3])+uint(off[w>>(3*gauss.Bits)&mask]))&1023]
		o[4] = sat[(uint(in[4])+uint(off[w>>(4*gauss.Bits)&mask]))&1023]
		src, out = src[gauss.PerWord:], out[gauss.PerWord:]
	}
	if len(src) > 0 {
		w := st.Next()
		for i, v := range src {
			out[i] = sat[(uint(v)+uint(off[w&mask]))&1023]
			w >>= gauss.Bits
		}
	}
}

// saturate[256+x] is x clamped to [0, 255]. The kernel indexes it with
// a byte plus a noiseOffsets entry, which is 256+x for x in [−256, 511];
// masking that index to the table's length lets the compiler drop the
// bounds check and, with the offsets clamped, never changes it.
var saturate = func() (t [1024]uint8) {
	for i := range t {
		t[i] = uint8(min(max(i-256, 0), 255))
	}
	return t
}()

var (
	offsetsMu sync.Mutex
	offsets   = map[float64]*[gauss.Levels]uint16{}
)

// noiseOffsets returns 256 + floor(σ·q) for every quantile q of
// gauss.Table, with floor(σ·q) clamped to ±256, past which any 8-bit
// value saturates. A table is built on the first call with its σ and
// shared read-only after.
func noiseOffsets(sigma float64) *[gauss.Levels]uint16 {
	offsetsMu.Lock()
	defer offsetsMu.Unlock()
	t := offsets[sigma]
	if t == nil {
		t = new([gauss.Levels]uint16)
		for i, q := range gauss.Table {
			t[i] = uint16(256 + min(max(math.Floor(sigma*q), -256), 256))
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
// scaling). A std that is not positive and finite, or a mean that is
// not finite, is an error: it would turn a whole channel into NaN or
// ±Inf.
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
	for c := range 3 {
		if !(std[c] > 0) || math.IsInf(std[c], 1) {
			return fmt.Errorf("imgproc: std[%d] = %v must be positive and finite", c, std[c])
		}
		if math.IsNaN(mean[c]) || math.IsInf(mean[c], 0) {
			return fmt.Errorf("imgproc: mean[%d] = %v must be finite", c, mean[c])
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
	r := dst.Data[:plane]
	g, b := dst.Data[plane:][:len(r)], dst.Data[2*plane:][:len(r)]
	pix := im.Pix[:3*len(r)]
	for i := range r {
		p := pix[3*i : 3*i+3 : 3*i+3]
		r[i], g[i], b[i] = lut[0][p[0]], lut[1][p[1]], lut[2][p[2]]
	}
	return nil
}
