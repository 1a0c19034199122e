// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package imgproc

import (
	"bytes"
	"encoding/binary"
	"image"
	"io"
	"sync"
)

// This file is the JPEG decoder of DecodeJPEGCropInto, derived from Go
// 1.24's image/jpeg (reader.go, scan.go, huffman.go and idct.go); the
// LICENSE the header above names is GO-LICENSE in this directory. It is
// trimmed to what DecodeJPEGCropInto reaches and changed in seven ways,
// none of which moves a pixel:
//
//   - It reads the stream from a byte slice instead of an io.Reader
//     behind a 4 KB buffer; the unread-after-overshoot rules are the
//     same, so every stream decodes or fails as before.
//   - A sequential block is entropy-decoded from a 64-bit accumulator
//     with 9-bit lookups (decodeBlockFast). A block is decoded whole or
//     not at all: wherever the slow path might fail or keep state, the
//     fast path changes nothing and decodeBlock, image/jpeg's path,
//     decodes the block, so every error and all progressive scans are
//     image/jpeg's; a block it decodes leaves the bit buffer and read
//     position where decodeHuffman's lazy reads would. Its tables exist
//     only for prefix codes.
//   - It still entropy-decodes every MCU, but dequantizes and
//     inverse-transforms only the blocks the pixel window d.win reads,
//     in the sequential path and in reconstructProgressiveImage alike.
//   - A sequential block is dequantized only up to the last
//     coefficient its scan wrote, and a DC-only block skips idct for
//     the constant idct would compute (reconstruct).
//   - A block whose coefficients end by zig-zag position 2 takes idct3,
//     idct with those zeros substituted, exact in wrapping int32
//     arithmetic, where x·0 = 0 and x ± 0 = x.
//   - Its Huffman and quantization tables, block scratch, planes and
//     progressive coefficients live in one pooled decoder, so a warm
//     decode allocates nothing. Planes are stale on entry: a plane no
//     scan wrote is cleared, which is what a fresh image/jpeg decode
//     returns for it. A DHT segment that repeats the one a slot's
//     tables were built from reuses them.
//   - It returns no image.Image: DecodeJPEGCropInto colour-converts the
//     window straight out of the planes (into.go).

// A formatError reports that the input is not a valid JPEG.
type formatError string

func (e formatError) Error() string { return "invalid JPEG format: " + string(e) }

// An unsupportedError reports that the input uses a valid but unimplemented JPEG feature.
type unsupportedError string

func (e unsupportedError) Error() string { return "unsupported JPEG feature: " + string(e) }

var errUnsupportedSubsamplingRatio error = unsupportedError("luma/chroma subsampling ratio")

// Component specification, specified in section B.2.2.
type component struct {
	h  int   // Horizontal sampling factor.
	v  int   // Vertical sampling factor.
	c  uint8 // Component identifier.
	tq uint8 // Quantization table destination selector.
}

const (
	dcTable = 0
	acTable = 1
	maxTc   = 1
	maxTh   = 3
	maxTq   = 3

	maxComponents = 4
)

const (
	sof0Marker = 0xc0 // Start Of Frame (Baseline Sequential).
	sof1Marker = 0xc1 // Start Of Frame (Extended Sequential).
	sof2Marker = 0xc2 // Start Of Frame (Progressive).
	dhtMarker  = 0xc4 // Define Huffman Table.
	rst0Marker = 0xd0 // ReSTart (0).
	rst7Marker = 0xd7 // ReSTart (7).
	soiMarker  = 0xd8 // Start Of Image.
	eoiMarker  = 0xd9 // End Of Image.
	sosMarker  = 0xda // Start Of Scan.
	dqtMarker  = 0xdb // Define Quantization Table.
	driMarker  = 0xdd // Define Restart Interval.
	comMarker  = 0xfe // COMment.
	// "APPlication specific" markers aren't part of the JPEG spec per se,
	// but in practice, their use is described at
	// https://www.sno.phy.queensu.ca/~phil/exiftool/TagNames/JPEG.html
	app0Marker  = 0xe0
	app14Marker = 0xee
	app15Marker = 0xef
)

// See https://www.sno.phy.queensu.ca/~phil/exiftool/TagNames/JPEG.html#Adobe
const (
	adobeTransformUnknown = 0
)

// unzig maps from the zig-zag ordering to the natural ordering. For example,
// unzig[3] is the column and row of the fourth element in zig-zag order. The
// value is 16, which means first column (16%8 == 0) and third row (16/8 == 2).
var unzig = [blockSize]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// bits holds the unprocessed bits that have been taken from the byte-stream.
// The n least significant bits of a form the unread bits, to be read in MSB to
// LSB order.
type bits struct {
	a uint32 // accumulator.
	m uint32 // mask. m==1<<(n-1) when n>0, with m==0 when n==0.
	n int32  // the number of unread bits in a.
}

// jpegBuffers is what a decoder keeps across decodes: the Y (or gray),
// Cb, Cr and black planes and the progressive coefficients, each grown
// to the largest frame seen. Contents are stale between decodes.
type jpegBuffers struct {
	y, cb, cr, black []byte
	coeffs           [maxComponents][]block
}

type decoder struct {
	decodeState
	// huff is the Huffman table of every (class, id) slot. A table
	// outlives the decode that defined it, so a later DHT segment with
	// the same bytes reuses its lookups (processDHT); decode marks every
	// slot undefined, as a fresh image/jpeg decoder starts.
	huff [maxTc + 1][maxTh + 1]huffman
	bufs jpegBuffers
}

// decodeState is what every decode starts from zero.
type decodeState struct {
	// The stream: data[i:] is unread. nUnreadable is the number of bytes
	// to back up i after overshooting. It can be 0, 1 or 2. Byte
	// stuffing is specified in section F.1.2.3.
	data        []byte
	i           int
	nUnreadable int

	bits          bits
	width, height int

	// win is the pixel window the caller reads: only its blocks are
	// dequantized and inverse-transformed.
	win image.Rectangle

	img1        image.Gray
	img3        image.YCbCr
	haveImg     bool // the planes were sized, at the first SOS
	blackPix    []byte
	blackStride int
	// written marks the components some scan of this decode covered;
	// the progressive coefficients of a component are cleared when its
	// first scan starts, and the plane of one no scan covered is cleared
	// before conversion.
	written [maxComponents]bool

	ri    int // Restart Interval.
	nComp int

	// As per section 4.5, there are four modes of operation (selected by the
	// SOF? markers): sequential DCT, progressive DCT, lossless and
	// hierarchical, although this implementation does not support the latter
	// two non-DCT modes. Sequential DCT is further split into baseline and
	// extended, as per section 4.11.
	baseline    bool
	progressive bool

	jfif                bool
	adobeTransformValid bool
	adobeTransform      uint8
	eobRun              uint16 // End-of-Band run, specified in section G.1.2.2.

	comp  [maxComponents]component
	quant [maxTq + 1]block // Quantization tables, in zig-zag order.
	tmp   [2 * blockSize]byte
}

// decoders pools decoders, and with them their tables and planes,
// across DecodeJPEGCropInto calls.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// unreadByteStuffedByte undoes the most recent readByteStuffedByte call,
// giving a byte of data back from d.bits to d.data. The Huffman look-up table
// requires at least 8 bits for look-up, which means that Huffman decoding can
// sometimes overshoot and read one or two too many bytes. Two-byte overshoot
// can happen when expecting to read a 0xff 0x00 byte-stuffed byte.
func (d *decoder) unreadByteStuffedByte() {
	d.i -= d.nUnreadable
	d.nUnreadable = 0
	if d.bits.n >= 8 {
		d.bits.a >>= 8
		d.bits.n -= 8
		d.bits.m >>= 8
	}
}

// readByte returns the next byte. It does not care about byte stuffing.
func (d *decoder) readByte() (x byte, err error) {
	if d.i == len(d.data) {
		return 0, io.ErrUnexpectedEOF
	}
	x = d.data[d.i]
	d.i++
	d.nUnreadable = 0
	return x, nil
}

// errMissingFF00 means that readByteStuffedByte encountered an 0xff byte (a
// marker byte) that wasn't the expected byte-stuffed sequence 0xff, 0x00.
// It and the other sentinels are typed error, so returning one boxes
// nothing: every scan's end meets one.
var errMissingFF00 error = formatError("missing 0xff00 sequence")

// readByteStuffedByte is like readByte but is for byte-stuffed Huffman data.
func (d *decoder) readByteStuffedByte() (x byte, err error) {
	// Take the fast path if at least two bytes are left.
	if d.i+2 <= len(d.data) {
		x = d.data[d.i]
		d.i++
		d.nUnreadable = 1
		if x != 0xff {
			return x, err
		}
		if d.data[d.i] != 0x00 {
			return 0, errMissingFF00
		}
		d.i++
		d.nUnreadable = 2
		return 0xff, nil
	}

	d.nUnreadable = 0

	x, err = d.readByte()
	if err != nil {
		return 0, err
	}
	d.nUnreadable = 1
	if x != 0xff {
		return x, nil
	}

	x, err = d.readByte()
	if err != nil {
		return 0, err
	}
	d.nUnreadable = 2
	if x != 0x00 {
		return 0, errMissingFF00
	}
	return 0xff, nil
}

// unreadOvershoot gives back the bytes Huffman decoding overshot, if
// any, before a read that does not care about byte stuffing.
func (d *decoder) unreadOvershoot() {
	if d.nUnreadable != 0 {
		if d.bits.n >= 8 {
			d.unreadByteStuffedByte()
		}
		d.nUnreadable = 0
	}
}

// readFull reads exactly len(p) bytes into p. It does not care about byte
// stuffing.
func (d *decoder) readFull(p []byte) error {
	d.unreadOvershoot()
	if len(d.data)-d.i < len(p) {
		d.i = len(d.data)
		return io.ErrUnexpectedEOF
	}
	d.i += copy(p, d.data[d.i:])
	return nil
}

// ignore ignores the next n bytes.
func (d *decoder) ignore(n int) error {
	d.unreadOvershoot()
	if len(d.data)-d.i < n {
		d.i = len(d.data)
		return io.ErrUnexpectedEOF
	}
	d.i += n
	return nil
}

// Specified in section B.2.2.
func (d *decoder) processSOF(n int) error {
	if d.nComp != 0 {
		return formatError("multiple SOF markers")
	}
	switch n {
	case 6 + 3*1: // Grayscale image.
		d.nComp = 1
	case 6 + 3*3: // YCbCr or RGB image.
		d.nComp = 3
	case 6 + 3*4: // YCbCrK or CMYK image.
		d.nComp = 4
	default:
		return unsupportedError("number of components")
	}
	if err := d.readFull(d.tmp[:n]); err != nil {
		return err
	}
	// We only support 8-bit precision.
	if d.tmp[0] != 8 {
		return unsupportedError("precision")
	}
	d.height = int(d.tmp[1])<<8 + int(d.tmp[2])
	d.width = int(d.tmp[3])<<8 + int(d.tmp[4])
	if int(d.tmp[5]) != d.nComp {
		return formatError("SOF has wrong length")
	}

	for i := 0; i < d.nComp; i++ {
		d.comp[i].c = d.tmp[6+3*i]
		// Section B.2.2 states that "the value of C_i shall be different from
		// the values of C_1 through C_(i-1)".
		for j := 0; j < i; j++ {
			if d.comp[i].c == d.comp[j].c {
				return formatError("repeated component identifier")
			}
		}

		d.comp[i].tq = d.tmp[8+3*i]
		if d.comp[i].tq > maxTq {
			return formatError("bad Tq value")
		}

		hv := d.tmp[7+3*i]
		h, v := int(hv>>4), int(hv&0x0f)
		if h < 1 || 4 < h || v < 1 || 4 < v {
			return formatError("luma/chroma subsampling ratio")
		}
		if h == 3 || v == 3 {
			return errUnsupportedSubsamplingRatio
		}
		switch d.nComp {
		case 1:
			// If a JPEG image has only one component, section A.2 says "this data
			// is non-interleaved by definition" and section A.2.2 says "[in this
			// case...] the order of data units within a scan shall be left-to-right
			// and top-to-bottom... regardless of the values of H_1 and V_1". Section
			// 4.8.2 also says "[for non-interleaved data], the MCU is defined to be
			// one data unit". Similarly, section A.1.1 explains that it is the ratio
			// of H_i to max_j(H_j) that matters, and similarly for V. For grayscale
			// images, H_1 is the maximum H_j for all components j, so that ratio is
			// always 1. The component's (h, v) is effectively always (1, 1): even if
			// the nominal (h, v) is (2, 1), a 20x5 image is encoded in three 8x8
			// MCUs, not two 16x8 MCUs.
			h, v = 1, 1

		case 3:
			// For YCbCr images, we only support 4:4:4, 4:4:0, 4:2:2, 4:2:0,
			// 4:1:1 or 4:1:0 chroma subsampling ratios. This implies that the
			// (h, v) values for the Y component are either (1, 1), (1, 2),
			// (2, 1), (2, 2), (4, 1) or (4, 2), and the Y component's values
			// must be a multiple of the Cb and Cr component's values. We also
			// assume that the two chroma components have the same subsampling
			// ratio.
			switch i {
			case 0: // Y.
				// We have already verified, above, that h and v are both
				// either 1, 2 or 4, so invalid (h, v) combinations are those
				// with v == 4.
				if v == 4 {
					return errUnsupportedSubsamplingRatio
				}
			case 1: // Cb.
				if d.comp[0].h%h != 0 || d.comp[0].v%v != 0 {
					return errUnsupportedSubsamplingRatio
				}
			case 2: // Cr.
				if d.comp[1].h != h || d.comp[1].v != v {
					return errUnsupportedSubsamplingRatio
				}
			}

		case 4:
			// For 4-component images (either CMYK or YCbCrK), we only support two
			// hv vectors: [0x11 0x11 0x11 0x11] and [0x22 0x11 0x11 0x22].
			// Theoretically, 4-component JPEG images could mix and match hv values
			// but in practice, those two combinations are the only ones in use,
			// and it simplifies the cmykInto code if we can assume that:
			//	- for CMYK, the C and K channels have full samples, and if the M
			//	  and Y channels subsample, they subsample both horizontally and
			//	  vertically.
			//	- for YCbCrK, the Y and K channels have full samples.
			switch i {
			case 0:
				if hv != 0x11 && hv != 0x22 {
					return errUnsupportedSubsamplingRatio
				}
			case 1, 2:
				if hv != 0x11 {
					return errUnsupportedSubsamplingRatio
				}
			case 3:
				if d.comp[0].h != h || d.comp[0].v != v {
					return errUnsupportedSubsamplingRatio
				}
			}
		}

		d.comp[i].h = h
		d.comp[i].v = v
	}
	return nil
}

// Specified in section B.2.4.1.
func (d *decoder) processDQT(n int) error {
loop:
	for n > 0 {
		n--
		x, err := d.readByte()
		if err != nil {
			return err
		}
		tq := x & 0x0f
		if tq > maxTq {
			return formatError("bad Tq value")
		}
		switch x >> 4 {
		default:
			return formatError("bad Pq value")
		case 0:
			if n < blockSize {
				break loop
			}
			n -= blockSize
			if err := d.readFull(d.tmp[:blockSize]); err != nil {
				return err
			}
			for i := range d.quant[tq] {
				d.quant[tq][i] = int32(d.tmp[i])
			}
		case 1:
			if n < 2*blockSize {
				break loop
			}
			n -= 2 * blockSize
			if err := d.readFull(d.tmp[:2*blockSize]); err != nil {
				return err
			}
			for i := range d.quant[tq] {
				d.quant[tq][i] = int32(d.tmp[2*i])<<8 | int32(d.tmp[2*i+1])
			}
		}
	}
	if n != 0 {
		return formatError("DQT has wrong length")
	}
	return nil
}

// Specified in section B.2.4.4.
func (d *decoder) processDRI(n int) error {
	if n != 2 {
		return formatError("DRI has wrong length")
	}
	if err := d.readFull(d.tmp[:2]); err != nil {
		return err
	}
	d.ri = int(d.tmp[0])<<8 + int(d.tmp[1])
	return nil
}

func (d *decoder) processApp0Marker(n int) error {
	if n < 5 {
		return d.ignore(n)
	}
	if err := d.readFull(d.tmp[:5]); err != nil {
		return err
	}
	n -= 5

	d.jfif = d.tmp[0] == 'J' && d.tmp[1] == 'F' && d.tmp[2] == 'I' && d.tmp[3] == 'F' && d.tmp[4] == '\x00'

	if n > 0 {
		return d.ignore(n)
	}
	return nil
}

func (d *decoder) processApp14Marker(n int) error {
	if n < 12 {
		return d.ignore(n)
	}
	if err := d.readFull(d.tmp[:12]); err != nil {
		return err
	}
	n -= 12

	if d.tmp[0] == 'A' && d.tmp[1] == 'd' && d.tmp[2] == 'o' && d.tmp[3] == 'b' && d.tmp[4] == 'e' {
		d.adobeTransformValid = true
		d.adobeTransform = d.tmp[11]
	}

	if n > 0 {
		return d.ignore(n)
	}
	return nil
}

// decode decodes the JPEG stream data and colour-converts the window
// win of its frame into dst, which it resizes to win. The caller has
// checked that data's frame header declares a frame that holds win.
// Everything but d.bufs and the built Huffman lookups starts from zero,
// as a fresh image/jpeg decoder does.
func (d *decoder) decode(dst *Image, data []byte, win image.Rectangle) error {
	d.decodeState = decodeState{data: data, win: win}
	for tc := range d.huff {
		for th := range d.huff[tc] {
			d.huff[tc][th].nCodes = 0
		}
	}

	// Check for the Start Of Image marker.
	if err := d.readFull(d.tmp[:2]); err != nil {
		return err
	}
	if d.tmp[0] != 0xff || d.tmp[1] != soiMarker {
		return formatError("missing SOI marker")
	}

	// Process the remaining segments until the End Of Image marker.
	for {
		err := d.readFull(d.tmp[:2])
		if err != nil {
			return err
		}
		for d.tmp[0] != 0xff {
			// Strictly speaking, this is a format error. However, libjpeg is
			// liberal in what it accepts. As of version 9, next_marker in
			// jdmarker.c treats this as a warning (JWRN_EXTRANEOUS_DATA) and
			// continues to decode the stream. Even before next_marker sees
			// extraneous data, jpeg_fill_bit_buffer in jdhuff.c reads as many
			// bytes as it can, possibly past the end of a scan's data. It
			// effectively puts back any markers that it overscanned (e.g. an
			// "\xff\xd9" EOI marker), but it does not put back non-marker data,
			// and thus it can silently ignore a small number of extraneous
			// non-marker bytes before next_marker has a chance to see them (and
			// print a warning).
			//
			// We are therefore also liberal in what we accept. Extraneous data
			// is silently ignored.
			//
			// This is similar to, but not exactly the same as, the restart
			// mechanism within a scan (the RST[0-7] markers).
			//
			// Note that extraneous 0xff bytes in e.g. SOS data are escaped as
			// "\xff\x00", and so are detected a little further down below.
			d.tmp[0] = d.tmp[1]
			d.tmp[1], err = d.readByte()
			if err != nil {
				return err
			}
		}
		marker := d.tmp[1]
		if marker == 0 {
			// Treat "\xff\x00" as extraneous data.
			continue
		}
		for marker == 0xff {
			// Section B.1.1.2 says, "Any marker may optionally be preceded by any
			// number of fill bytes, which are bytes assigned code X'FF'".
			marker, err = d.readByte()
			if err != nil {
				return err
			}
		}
		if marker == eoiMarker { // End Of Image.
			break
		}
		if rst0Marker <= marker && marker <= rst7Marker {
			// Figures B.2 and B.16 of the specification suggest that restart markers should
			// only occur between Entropy Coded Segments and not after the final ECS.
			// However, some encoders may generate incorrect JPEGs with a final restart
			// marker. That restart marker will be seen here instead of inside the processSOS
			// method, and is ignored as a harmless error. Restart markers have no extra data,
			// so we check for this before we read the 16-bit length of the segment.
			continue
		}

		// Read the 16-bit length of the segment. The value includes the 2 bytes for the
		// length itself, so we subtract 2 to get the number of remaining bytes.
		if err = d.readFull(d.tmp[:2]); err != nil {
			return err
		}
		n := int(d.tmp[0])<<8 + int(d.tmp[1]) - 2
		if n < 0 {
			return formatError("short segment length")
		}

		switch marker {
		case sof0Marker, sof1Marker, sof2Marker:
			d.baseline = marker == sof0Marker
			d.progressive = marker == sof2Marker
			err = d.processSOF(n)
		case dhtMarker:
			err = d.processDHT(n)
		case dqtMarker:
			err = d.processDQT(n)
		case sosMarker:
			err = d.processSOS(n)
		case driMarker:
			err = d.processDRI(n)
		case app0Marker:
			err = d.processApp0Marker(n)
		case app14Marker:
			err = d.processApp14Marker(n)
		default:
			if app0Marker <= marker && marker <= app15Marker || marker == comMarker {
				err = d.ignore(n)
			} else if marker < 0xc0 { // See Table B.1 "Marker code assignments".
				err = formatError("unknown marker")
			} else {
				err = unsupportedError("unknown marker")
			}
		}
		if err != nil {
			return err
		}
	}

	if d.progressive {
		d.reconstructProgressiveImage()
	}
	if !d.haveImg {
		return formatError("missing SOS marker")
	}
	if d.nComp == 4 && !d.adobeTransformValid {
		return unsupportedError("unknown color model: 4-component JPEG doesn't have Adobe APP14 metadata")
	}
	if !win.In(image.Rect(0, 0, d.width, d.height)) {
		return formatError("window outside the frame")
	}
	// The one component of a gray frame is in every scan; a colour
	// frame may leave one out.
	for c, p := range [maxComponents][]byte{d.img3.Y, d.img3.Cb, d.img3.Cr, d.blackPix} {
		if d.nComp > 1 && c < d.nComp && !d.written[c] {
			clear(p)
		}
	}
	dst.Reset(win.Dx(), win.Dy())
	switch {
	case d.nComp == 1:
		grayInto(dst, &d.img1, win)
	case d.nComp == 4:
		// Unless marked "Unknown (RGB or CMYK)", a 4-component image is
		// YCbCrK, as libjpeg's jdapimin.c assumes.
		cmykInto(dst, &d.img3, d.blackPix, d.blackStride, d.adobeTransform != adobeTransformUnknown, win)
	case d.isRGB():
		rgbInto(dst, &d.img3, win)
	default:
		ycbcrInto(dst, &d.img3, win)
	}
	return nil
}

func (d *decoder) isRGB() bool {
	if d.jfif {
		return false
	}
	if d.adobeTransformValid && d.adobeTransform == adobeTransformUnknown {
		// https://www.sno.phy.queensu.ca/~phil/exiftool/TagNames/JPEG.html#Adobe
		// says that 0 means Unknown (and in practice RGB) and 1 means YCbCr.
		return true
	}
	return d.comp[0].c == 'R' && d.comp[1].c == 'G' && d.comp[2].c == 'B'
}

// grow returns s resized to n elements, reusing its capacity when it
// fits. The contents are stale.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// makeImg sizes the destination planes from d.bufs.
func (d *decoder) makeImg(mxx, myy int) {
	d.haveImg = true
	if d.nComp == 1 {
		d.bufs.y = grow(d.bufs.y, 8*mxx*8*myy)
		d.img1 = image.Gray{Pix: d.bufs.y, Stride: 8 * mxx, Rect: image.Rect(0, 0, d.width, d.height)}
		return
	}

	h0 := d.comp[0].h
	v0 := d.comp[0].v
	hRatio := h0 / d.comp[1].h
	vRatio := v0 / d.comp[1].v
	var subsampleRatio image.YCbCrSubsampleRatio
	switch hRatio<<4 | vRatio {
	case 0x11:
		subsampleRatio = image.YCbCrSubsampleRatio444
	case 0x12:
		subsampleRatio = image.YCbCrSubsampleRatio440
	case 0x21:
		subsampleRatio = image.YCbCrSubsampleRatio422
	case 0x22:
		subsampleRatio = image.YCbCrSubsampleRatio420
	case 0x41:
		subsampleRatio = image.YCbCrSubsampleRatio411
	case 0x42:
		subsampleRatio = image.YCbCrSubsampleRatio410
	default:
		panic("unreachable")
	}
	// The planes of image.NewYCbCr over the MCU-padded frame, viewed
	// through the frame's bounds as image/jpeg's SubImage does.
	yw, yh := 8*h0*mxx, 8*v0*myy
	cw, ch := yw/hRatio, yh/vRatio
	d.bufs.y = grow(d.bufs.y, yw*yh)
	d.bufs.cb = grow(d.bufs.cb, cw*ch)
	d.bufs.cr = grow(d.bufs.cr, cw*ch)
	d.img3 = image.YCbCr{
		Y: d.bufs.y, Cb: d.bufs.cb, Cr: d.bufs.cr,
		YStride: yw, CStride: cw,
		SubsampleRatio: subsampleRatio,
		Rect:           image.Rect(0, 0, d.width, d.height),
	}

	if d.nComp == 4 {
		h3, v3 := d.comp[3].h, d.comp[3].v
		d.bufs.black = grow(d.bufs.black, 8*h3*mxx*8*v3*myy)
		d.blackPix = d.bufs.black
		d.blackStride = 8 * h3 * mxx
	}
}

// windowBlocks returns the blocks of component c that d.win reads, in
// block units: block (bx, by) covers the frame pixels
// [bx·bw, (bx+1)·bw) × [by·bh, (by+1)·bh), where bw and bh are 8 scaled
// by the component's subsampling.
func (d *decoder) windowBlocks(c int) image.Rectangle {
	bw := 8 * d.comp[0].h / d.comp[c].h
	bh := 8 * d.comp[0].v / d.comp[c].v
	w := d.win
	return image.Rect(w.Min.X/bw, w.Min.Y/bh, (w.Max.X+bw-1)/bw, (w.Max.Y+bh-1)/bh)
}

// Specified in section B.2.3.
func (d *decoder) processSOS(n int) error {
	if d.nComp == 0 {
		return formatError("missing SOF marker")
	}
	if n < 6 || 4+2*d.nComp < n || n%2 != 0 {
		return formatError("SOS has wrong length")
	}
	if err := d.readFull(d.tmp[:n]); err != nil {
		return err
	}
	nComp := int(d.tmp[0])
	if n != 4+2*nComp {
		return formatError("SOS length inconsistent with number of components")
	}
	var scan [maxComponents]struct {
		compIndex uint8
		td        uint8 // DC table selector.
		ta        uint8 // AC table selector.
		win       image.Rectangle
		fast      bool // decodeBlockFast may decode its blocks
	}
	totalHV := 0
	for i := 0; i < nComp; i++ {
		cs := d.tmp[1+2*i] // Component selector.
		compIndex := -1
		for j, comp := range d.comp[:d.nComp] {
			if cs == comp.c {
				compIndex = j
			}
		}
		if compIndex < 0 {
			return formatError("unknown component selector")
		}
		scan[i].compIndex = uint8(compIndex)
		// Section B.2.3 states that "the value of Cs_j shall be different from
		// the values of Cs_1 through Cs_(j-1)". Since we have previously
		// verified that a frame's component identifiers (C_i values in section
		// B.2.2) are unique, it suffices to check that the implicit indexes
		// into d.comp are unique.
		for j := 0; j < i; j++ {
			if scan[i].compIndex == scan[j].compIndex {
				return formatError("repeated component selector")
			}
		}
		totalHV += d.comp[compIndex].h * d.comp[compIndex].v

		// The baseline t <= 1 restriction is specified in table B.3.
		scan[i].td = d.tmp[2+2*i] >> 4
		if t := scan[i].td; t > maxTh || (d.baseline && t > 1) {
			return formatError("bad Td value")
		}
		scan[i].ta = d.tmp[2+2*i] & 0x0f
		if t := scan[i].ta; t > maxTh || (d.baseline && t > 1) {
			return formatError("bad Ta value")
		}
		scan[i].win = d.windowBlocks(compIndex)
		dcH, acH := &d.huff[dcTable][scan[i].td], &d.huff[acTable][scan[i].ta]
		scan[i].fast = !d.progressive && dcH.nCodes != 0 && dcH.prefix && acH.nCodes != 0 && acH.prefix
	}
	// Section B.2.3 states that if there is more than one component then the
	// total H*V values in a scan must be <= 10.
	if d.nComp > 1 && totalHV > 10 {
		return formatError("total sampling factors too large")
	}

	// zigStart and zigEnd are the spectral selection bounds.
	// ah and al are the successive approximation high and low values.
	// The spec calls these values Ss, Se, Ah and Al.
	//
	// For progressive JPEGs, these are the two more-or-less independent
	// aspects of progression. Spectral selection progression is when not
	// all of a block's 64 DCT coefficients are transmitted in one pass.
	// For example, three passes could transmit coefficient 0 (the DC
	// component), coefficients 1-5, and coefficients 6-63, in zig-zag
	// order. Successive approximation is when not all of the bits of a
	// band of coefficients are transmitted in one pass. For example,
	// three passes could transmit the 6 most significant bits, followed
	// by the second-least significant bit, followed by the least
	// significant bit.
	//
	// For sequential JPEGs, these parameters are hard-coded to 0/63/0/0, as
	// per table B.3.
	zigStart, zigEnd, ah, al := int32(0), int32(blockSize-1), uint32(0), uint32(0)
	if d.progressive {
		zigStart = int32(d.tmp[1+2*nComp])
		zigEnd = int32(d.tmp[2+2*nComp])
		ah = uint32(d.tmp[3+2*nComp] >> 4)
		al = uint32(d.tmp[3+2*nComp] & 0x0f)
		if (zigStart == 0 && zigEnd != 0) || zigStart > zigEnd || blockSize <= zigEnd {
			return formatError("bad spectral selection bounds")
		}
		if zigStart != 0 && nComp != 1 {
			return formatError("progressive AC coefficients for more than one component")
		}
		if ah != 0 && ah != al+1 {
			return formatError("bad successive approximation values")
		}
	}

	// mxx and myy are the number of MCUs (Minimum Coded Units) in the image.
	h0, v0 := d.comp[0].h, d.comp[0].v // The h and v values from the Y components.
	mxx := (d.width + 8*h0 - 1) / (8 * h0)
	myy := (d.height + 8*v0 - 1) / (8 * v0)
	if !d.haveImg {
		d.makeImg(mxx, myy)
	}
	for i := 0; i < nComp; i++ {
		compIndex := scan[i].compIndex
		if d.progressive && !d.written[compIndex] {
			c := grow(d.bufs.coeffs[compIndex], mxx*myy*d.comp[compIndex].h*d.comp[compIndex].v)
			clear(c)
			d.bufs.coeffs[compIndex] = c
		}
		d.written[compIndex] = true
	}

	d.bits = bits{}
	mcu, expectedRST := 0, uint8(rst0Marker)
	var (
		// b is the decoded coefficients, in natural (not zig-zag) order.
		b  block
		dc [maxComponents]int32
		// bx and by are the location of the current block, in units of 8x8
		// blocks: the third block in the first row has (bx, by) = (2, 0).
		bx, by     int
		blockCount int
	)
	for my := 0; my < myy; my++ {
		for mx := 0; mx < mxx; mx++ {
			for i := 0; i < nComp; i++ {
				compIndex := scan[i].compIndex
				hi := d.comp[compIndex].h
				vi := d.comp[compIndex].v
				for j := 0; j < hi*vi; j++ {
					// The blocks are traversed one MCU at a time. For 4:2:0 chroma
					// subsampling, there are four Y 8x8 blocks in every 16x16 MCU.
					//
					// For a sequential 32x16 pixel image, the Y blocks visiting order is:
					//	0 1 4 5
					//	2 3 6 7
					//
					// For progressive images, the interleaved scans (those with nComp > 1)
					// are traversed as above, but non-interleaved scans are traversed left
					// to right, top to bottom:
					//	0 1 2 3
					//	4 5 6 7
					// Only DC scans (zigStart == 0) can be interleaved. AC scans must have
					// only one component.
					//
					// To further complicate matters, for non-interleaved scans, there is no
					// data for any blocks that are inside the image at the MCU level but
					// outside the image at the pixel level. For example, a 24x16 pixel 4:2:0
					// progressive image consists of two 16x16 MCUs. The interleaved scans
					// will process 8 Y blocks:
					//	0 1 4 5
					//	2 3 6 7
					// The non-interleaved scans will process only 6 Y blocks:
					//	0 1 2
					//	3 4 5
					if nComp != 1 {
						bx = hi*mx + j%hi
						by = vi*my + j/hi
					} else {
						q := mxx * hi
						bx = blockCount % q
						by = blockCount / q
						blockCount++
						if bx*8 >= d.width || by*8 >= d.height {
							continue
						}
					}

					// Load the previous partially decoded coefficients, if applicable.
					if d.progressive {
						b = d.bufs.coeffs[compIndex][by*mxx*hi+bx]
					} else {
						b = block{}
					}

					dcH, acH := &d.huff[dcTable][scan[i].td], &d.huff[acTable][scan[i].ta]
					// nz is one past the last zig-zag position this scan
					// wrote; a sequential block is zero from there on.
					nz, done := 0, false
					if scan[i].fast && d.eobRun == 0 {
						if nz, done = d.decodeBlockFast(&b, &dc[compIndex], dcH, acH); !done {
							b = block{} // the slow path decodes it again
						}
					}
					if !done {
						var err error
						if ah != 0 {
							err = d.refine(&b, acH, zigStart, zigEnd, 1<<al)
						} else {
							nz, err = d.decodeBlock(&b, &dc[compIndex], dcH, acH, zigStart, zigEnd, al)
						}
						if err != nil {
							return err
						}
					}

					if d.progressive {
						// Save the coefficients; reconstructProgressiveImage
						// reconstructs the window's blocks after the last scan.
						d.bufs.coeffs[compIndex][by*mxx*hi+bx] = b
						continue
					}
					if !image.Pt(bx, by).In(scan[i].win) {
						continue // entropy-decoded, but no pixel of the window reads it
					}
					d.reconstructBlock(&b, nz, bx, by, int(compIndex))
				} // for j
			} // for i
			mcu++
			if d.ri > 0 && mcu%d.ri == 0 && mcu < mxx*myy {
				// For well-formed input, the RST[0-7] restart marker follows
				// immediately. For corrupt input, call findRST to try to
				// resynchronize.
				if err := d.readFull(d.tmp[:2]); err != nil {
					return err
				} else if d.tmp[0] != 0xff || d.tmp[1] != expectedRST {
					if err := d.findRST(expectedRST); err != nil {
						return err
					}
				}
				expectedRST++
				if expectedRST == rst7Marker+1 {
					expectedRST = rst0Marker
				}
				// Reset the Huffman decoder.
				d.bits = bits{}
				// Reset the DC components, as per section F.2.1.3.1.
				dc = [maxComponents]int32{}
				// Reset the progressive decoder state, as per section G.1.2.2.
				d.eobRun = 0
			}
		} // for mx
	} // for my

	return nil
}

// decodeBlock decodes the coefficients zigStart to zigEnd of a block
// into b, each shifted left by al, as specified in sections F.2.2.1
// (the DC coefficient, from the predictor *dc) and F.2.2.2, and returns
// one past the last zig-zag position it wrote. It is the one path of
// progressive scans and of the sequential blocks decodeBlockFast
// declines.
func (d *decoder) decodeBlock(b *block, dc *int32, dcH, acH *huffman, zigStart, zigEnd int32, al uint32) (nz int, err error) {
	zig := zigStart
	if zig == 0 {
		zig++
		// Decode the DC coefficient, as specified in section F.2.2.1.
		value, err := d.decodeHuffman(dcH)
		if err != nil {
			return 0, err
		}
		if value > 16 {
			return 0, unsupportedError("excessive DC component")
		}
		dcDelta, err := d.receiveExtend(value)
		if err != nil {
			return 0, err
		}
		*dc += dcDelta
		b[0] = *dc << al
		nz = 1
	}

	if zig <= zigEnd && d.eobRun > 0 {
		d.eobRun--
		return nz, nil
	}
	// Decode the AC coefficients, as specified in section F.2.2.2.
	for ; zig <= zigEnd; zig++ {
		value, err := d.decodeHuffman(acH)
		if err != nil {
			return 0, err
		}
		val0 := value >> 4
		val1 := value & 0x0f
		if val1 != 0 {
			zig += int32(val0)
			if zig > zigEnd {
				break
			}
			ac, err := d.receiveExtend(val1)
			if err != nil {
				return 0, err
			}
			b[unzig[zig]] = ac << al
			nz = int(zig) + 1
		} else {
			if val0 != 0x0f {
				d.eobRun = uint16(1 << val0)
				if val0 != 0 {
					bits, err := d.decodeBits(int32(val0))
					if err != nil {
						return 0, err
					}
					d.eobRun |= uint16(bits)
				}
				d.eobRun--
				break
			}
			zig += 0x0f
		}
	}
	return nz, nil
}

// refine decodes a successive approximation refinement block, as specified in
// section G.1.2.
func (d *decoder) refine(b *block, h *huffman, zigStart, zigEnd, delta int32) error {
	// Refining a DC component is trivial.
	if zigStart == 0 {
		if zigEnd != 0 {
			panic("unreachable")
		}
		bit, err := d.decodeBit()
		if err != nil {
			return err
		}
		if bit {
			b[0] |= delta
		}
		return nil
	}

	// Refining AC components is more complicated; see sections G.1.2.2 and G.1.2.3.
	zig := zigStart
	if d.eobRun == 0 {
	loop:
		for ; zig <= zigEnd; zig++ {
			z := int32(0)
			value, err := d.decodeHuffman(h)
			if err != nil {
				return err
			}
			val0 := value >> 4
			val1 := value & 0x0f

			switch val1 {
			case 0:
				if val0 != 0x0f {
					d.eobRun = uint16(1 << val0)
					if val0 != 0 {
						bits, err := d.decodeBits(int32(val0))
						if err != nil {
							return err
						}
						d.eobRun |= uint16(bits)
					}
					break loop
				}
			case 1:
				z = delta
				bit, err := d.decodeBit()
				if err != nil {
					return err
				}
				if !bit {
					z = -z
				}
			default:
				return formatError("unexpected Huffman code")
			}

			zig, err = d.refineNonZeroes(b, zig, zigEnd, int32(val0), delta)
			if err != nil {
				return err
			}
			if zig > zigEnd {
				return formatError("too many coefficients")
			}
			if z != 0 {
				b[unzig[zig]] = z
			}
		}
	}
	if d.eobRun > 0 {
		d.eobRun--
		if _, err := d.refineNonZeroes(b, zig, zigEnd, -1, delta); err != nil {
			return err
		}
	}
	return nil
}

// refineNonZeroes refines non-zero entries of b in zig-zag order. If nz >= 0,
// the first nz zero entries are skipped over.
func (d *decoder) refineNonZeroes(b *block, zig, zigEnd, nz, delta int32) (int32, error) {
	for ; zig <= zigEnd; zig++ {
		u := unzig[zig]
		if b[u] == 0 {
			if nz == 0 {
				break
			}
			nz--
			continue
		}
		bit, err := d.decodeBit()
		if err != nil {
			return 0, err
		}
		if !bit {
			continue
		}
		if b[u] >= 0 {
			b[u] += delta
		} else {
			b[u] -= delta
		}
	}
	return zig, nil
}

// reconstructProgressiveImage reconstructs the window's blocks of every
// component some scan covered.
func (d *decoder) reconstructProgressiveImage() {
	// The h0, mxx, by and bx variables have the same meaning as in the
	// processSOS method.
	h0 := d.comp[0].h
	mxx := (d.width + 8*h0 - 1) / (8 * h0)
	for i := 0; i < d.nComp; i++ {
		if !d.written[i] {
			continue
		}
		v := 8 * d.comp[0].v / d.comp[i].v
		h := 8 * d.comp[0].h / d.comp[i].h
		stride := mxx * d.comp[i].h
		win := d.windowBlocks(i)
		for by := win.Min.Y; by < win.Max.Y && by*v < d.height; by++ {
			for bx := win.Min.X; bx < win.Max.X && bx*h < d.width; bx++ {
				d.reconstructBlock(&d.bufs.coeffs[i][by*stride+bx], blockSize, bx, by, i)
			}
		}
	}
}

// reconstructBlock dequantizes, performs the inverse DCT and stores the
// block to the image. b's coefficients from zig-zag position n on are
// zero.
func (d *decoder) reconstructBlock(b *block, n, bx, by, compIndex int) {
	var dst []byte
	var stride int
	if d.nComp == 1 {
		dst, stride = d.img1.Pix[8*(by*d.img1.Stride+bx):], d.img1.Stride
	} else {
		switch compIndex {
		case 0:
			dst, stride = d.img3.Y[8*(by*d.img3.YStride+bx):], d.img3.YStride
		case 1:
			dst, stride = d.img3.Cb[8*(by*d.img3.CStride+bx):], d.img3.CStride
		case 2:
			dst, stride = d.img3.Cr[8*(by*d.img3.CStride+bx):], d.img3.CStride
		default:
			dst, stride = d.blackPix[8*(by*d.blackStride+bx):], d.blackStride
		}
	}
	reconstruct(b, &d.quant[d.comp[compIndex].tq], n, dst, stride)
}

// reconstruct dequantizes b's first n zig-zag coefficients by qt (the
// rest are zero), inverse-transforms b and writes the level-shifted,
// clipped 8×8 block to dst, whose rows are stride bytes apart. It
// dequantizes only what b carries, and a block with at most a DC
// coefficient, a third of the corpus's blocks, skips idct: there its
// row pass writes dc<<3 to row 0 and zeros below, and its column pass
// turns each column into ((dc<<3)<<8 + 8192) >> 14 in every row, which
// the int32 arithmetic here repeats bit for bit, overflow included. A
// block whose coefficients end by zig-zag position 2, another 43 %,
// takes idct3.
func reconstruct(b *block, qt *block, n int, dst []byte, stride int) {
	if n <= 1 {
		row := uint64(levelShift(((b[0]*qt[0])<<11+8192)>>14)) * 0x0101010101010101
		for y := 0; y < 8; y++ {
			binary.LittleEndian.PutUint64(dst[y*stride:], row)
		}
		return
	}
	if n <= 3 {
		idct3(b[0]*qt[0], b[1]*qt[1], b[8]*qt[2], dst, stride)
		return
	}
	for zig := range qt[:n] {
		b[unzig[zig]] *= qt[zig]
	}
	idct(b)
	for y := 0; y < 8; y++ {
		s, out := b[8*y:8*y+8:8*y+8], dst[y*stride:][:8]
		out[0], out[1], out[2], out[3] = levelShift(s[0]), levelShift(s[1]), levelShift(s[2]), levelShift(s[3])
		out[4], out[5], out[6], out[7] = levelShift(s[4]), levelShift(s[5]), levelShift(s[6]), levelShift(s[7])
	}
}

// levelShift clips an inverse-transformed sample to [−128, 127] and
// shifts it by +128: one unsigned compare tells whether c+128 is a
// byte, and c's sign picks the clip when it is not.
func levelShift(c int32) uint8 {
	if uint32(c+128) <= 255 {
		return uint8(c + 128)
	}
	return uint8(^(c >> 31))
}

// findRST advances past the next RST restart marker that matches expectedRST.
// Other than I/O errors, it is also an error if we encounter an {0xFF, M}
// two-byte marker sequence where M is not 0x00, 0xFF or the expectedRST.
//
// This is similar to libjpeg's jdmarker.c's next_marker function.
// https://github.com/libjpeg-turbo/libjpeg-turbo/blob/2dfe6c0fe9e18671105e94f7cbf044d4a1d157e6/jdmarker.c#L892-L935
//
// Precondition: d.tmp[:2] holds the next two bytes of JPEG-encoded input
// (input in the d.readFull sense).
func (d *decoder) findRST(expectedRST uint8) error {
	for {
		// i is the index such that, at the bottom of the loop, we read 2-i
		// bytes into d.tmp[i:2], maintaining the invariant that d.tmp[:2]
		// holds the next two bytes of JPEG-encoded input. It is either 0 or 1,
		// so that each iteration advances by 1 or 2 bytes (or returns).
		i := 0

		if d.tmp[0] == 0xff {
			if d.tmp[1] == expectedRST {
				return nil
			} else if d.tmp[1] == 0xff {
				i = 1
			} else if d.tmp[1] != 0x00 {
				// libjpeg's jdmarker.c's jpeg_resync_to_restart does something
				// fancy here, treating RST markers within two (modulo 8) of
				// expectedRST differently from RST markers that are 'more
				// distant'. Until we see evidence that recovering from such
				// cases is frequent enough to be worth the complexity, we take
				// a simpler approach for now. Any marker that's not 0x00, 0xff
				// or expectedRST is a fatal formatError.
				return formatError("bad RST marker")
			}

		} else if d.tmp[1] == 0xff {
			d.tmp[0] = 0xff
			i = 1
		}

		if err := d.readFull(d.tmp[i:2]); err != nil {
			return err
		}
	}
}

// maxCodeLength is the maximum (inclusive) number of bits in a Huffman code.
const maxCodeLength = 16

// maxNCodes is the maximum (inclusive) number of codes in a Huffman tree.
const maxNCodes = 256

// lutSize is the log-2 size of the Huffman decoder's look-up table.
const lutSize = 8

// fastBits is the log-2 size of the fast path's look-up tables.
const fastBits = 9

// huffman is a Huffman decoder, specified in section C.
type huffman struct {
	// length is the number of codes in the tree.
	nCodes int32
	// lut is the look-up table for the next lutSize bits in the bit-stream.
	// The high 8 bits of the uint16 are the encoded value. The low 8 bits
	// are 1 plus the code length, or 0 if the value is too large to fit in
	// lutSize bits.
	lut [1 << lutSize]uint16
	// vals are the decoded values, sorted by their encoding.
	vals [maxNCodes]uint8
	// minCodes[i] is the minimum code of length i, or -1 if there are no
	// codes of that length.
	minCodes [maxCodeLength]int32
	// maxCodes[i] is the maximum code of length i, or -1 if there are no
	// codes of that length.
	maxCodes [maxCodeLength]int32
	// valsIndices[i] is the index into vals of minCodes[i].
	valsIndices [maxCodeLength]int32

	// prefix reports that the code lengths form a prefix code (their
	// Kraft sum is at most 1), so the fast path's lookups below are
	// built; decodeBlockFast reads no table without it.
	prefix bool
	// fast maps the next fastBits bits to the encoded value<<8 | the
	// code length when a code of at most fastBits bits starts them, and
	// to 0 otherwise.
	fast [1 << fastBits]uint16
	// fastAC, built for AC tables, maps the next fastBits bits to
	// coefficient<<8 | run<<4 | length when they hold a whole
	// coefficient: a code with a non-zero size and its magnitude bits,
	// length bits in all, the coefficient already extended. It is 0
	// otherwise.
	fastAC [1 << fastBits]int32

	// counts and built identify the DHT segment the tables were built
	// from: its 16 code-length counts, and its nCodes values, which are
	// vals[:built]. built is 0 when the tables match no segment.
	counts [maxCodeLength]uint8
	built  int32
}

// errShortHuffmanData means that an unexpected EOF occurred while decoding
// Huffman data.
var errShortHuffmanData error = formatError("short Huffman data")

// ensureNBits reads bytes from the byte buffer to ensure that d.bits.n is at
// least n. For best performance (avoiding function calls inside hot loops),
// the caller is the one responsible for first checking that d.bits.n < n.
func (d *decoder) ensureNBits(n int32) error {
	for {
		c, err := d.readByteStuffedByte()
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				return errShortHuffmanData
			}
			return err
		}
		d.bits.a = d.bits.a<<8 | uint32(c)
		d.bits.n += 8
		if d.bits.m == 0 {
			d.bits.m = 1 << 7
		} else {
			d.bits.m <<= 8
		}
		if d.bits.n >= n {
			break
		}
	}
	return nil
}

// receiveExtend is the composition of RECEIVE and EXTEND, specified in section
// F.2.2.1.
func (d *decoder) receiveExtend(t uint8) (int32, error) {
	if d.bits.n < int32(t) {
		if err := d.ensureNBits(int32(t)); err != nil {
			return 0, err
		}
	}
	d.bits.n -= int32(t)
	d.bits.m >>= t
	s := int32(1) << t
	return extend(int32(d.bits.a>>uint8(d.bits.n))&(s-1), t), nil
}

// extend is EXTEND of section F.2.2.1: the t-bit magnitude x as a
// signed value.
func extend(x int32, t uint8) int32 {
	if s := int32(1) << t; x < s>>1 {
		x += ((-1) << t) + 1
	}
	return x
}

// processDHT processes a Define Huffman Table marker, and initializes a huffman
// struct from its contents. Specified in section B.2.4.2. A segment whose
// counts and values are those the slot's tables were built from, as every
// file of one encoder repeats them, reuses the tables.
func (d *decoder) processDHT(n int) error {
	for n > 0 {
		if n < 17 {
			return formatError("DHT has wrong length")
		}
		if err := d.readFull(d.tmp[:17]); err != nil {
			return err
		}
		tc := d.tmp[0] >> 4
		if tc > maxTc {
			return formatError("bad Tc value")
		}
		th := d.tmp[0] & 0x0f
		// The baseline th <= 1 restriction is specified in table B.5.
		if th > maxTh || (d.baseline && th > 1) {
			return formatError("bad Th value")
		}
		h := &d.huff[tc][th]

		// Read nCodes and h.vals (and derive h.nCodes).
		// nCodes[i] is the number of codes with code length i.
		// h.nCodes is the total number of codes.
		h.nCodes = 0
		var nCodes [maxCodeLength]int32
		for i := range nCodes {
			nCodes[i] = int32(d.tmp[i+1])
			h.nCodes += nCodes[i]
		}
		if h.nCodes == 0 {
			return formatError("Huffman table has zero length")
		}
		if h.nCodes > maxNCodes {
			return formatError("Huffman table has excessive length")
		}
		n -= int(h.nCodes) + 17
		if n < 0 {
			return formatError("DHT has wrong length")
		}
		counts := [maxCodeLength]uint8(d.tmp[1 : 1+maxCodeLength])
		if h.built == h.nCodes && h.counts == counts && len(d.data)-d.i >= int(h.nCodes) &&
			bytes.Equal(d.data[d.i:d.i+int(h.nCodes)], h.vals[:h.nCodes]) {
			if err := d.ignore(int(h.nCodes)); err != nil {
				return err
			}
			continue
		}
		h.built = 0
		if err := d.readFull(h.vals[:h.nCodes]); err != nil {
			return err
		}

		// Derive the look-up table.
		clear(h.lut[:])
		var x, code uint32
		for i := uint32(0); i < lutSize; i++ {
			code <<= 1
			for j := int32(0); j < nCodes[i]; j++ {
				// The codeLength is 1+i, so shift code by 8-(1+i) to
				// calculate the high bits for every 8-bit sequence
				// whose codeLength's high bits matches code.
				// The high 8 bits of lutValue are the encoded value.
				// The low 8 bits are 1 plus the codeLength.
				base := uint8(code << (7 - i))
				lutValue := uint16(h.vals[x])<<8 | uint16(2+i)
				for k := uint8(0); k < 1<<(7-i); k++ {
					h.lut[base|k] = lutValue
				}
				code++
				x++
			}
		}

		// Derive minCodes, maxCodes, and valsIndices.
		var c, index int32
		for i, n := range nCodes {
			if n == 0 {
				h.minCodes[i] = -1
				h.maxCodes[i] = -1
				h.valsIndices[i] = -1
			} else {
				h.minCodes[i] = c
				h.maxCodes[i] = c + n - 1
				h.valsIndices[i] = index
				c += n
				index += n
			}
			c <<= 1
		}
		h.buildFast(&nCodes, tc == acTable)
		h.counts, h.built = counts, h.nCodes
	}
	return nil
}

// buildFast derives the fast path's tables from the canonical codes
// when nCodes, the count of codes of each length, describes a prefix
// code. An over-subscribed one, whose codes overflow their length,
// gets none: h.prefix stays false.
func (h *huffman) buildFast(nCodes *[maxCodeLength]int32, ac bool) {
	h.prefix = false
	var code int32
	for i, n := range nCodes {
		if code += n; code > 1<<(i+1) {
			return
		}
		code <<= 1
	}
	clear(h.fast[:])
	code = 0
	var x int
	for i := range fastBits {
		l := i + 1
		for range nCodes[i] {
			v := uint16(h.vals[x])<<8 | uint16(l)
			base := int(code) << (fastBits - l)
			for k := range 1 << (fastBits - l) {
				h.fast[base+k] = v
			}
			code++
			x++
		}
		code <<= 1
	}
	h.prefix = true
	if !ac {
		return
	}
	for i, v := range h.fast {
		l, size := int(v&0xff), uint8(v>>8)&0x0f
		h.fastAC[i] = 0
		if v == 0 || size == 0 || l+int(size) > fastBits {
			continue
		}
		m := int32(i>>(fastBits-l-int(size))) & (1<<size - 1)
		h.fastAC[i] = extend(m, size)<<8 | int32(v>>12)<<4 | int32(l+int(size))
	}
}

// decodeHuffman returns the next Huffman-coded value from the bit-stream,
// decoded according to h.
func (d *decoder) decodeHuffman(h *huffman) (uint8, error) {
	if h.nCodes == 0 {
		return 0, formatError("uninitialized Huffman table")
	}

	if d.bits.n < 8 {
		if err := d.ensureNBits(8); err != nil {
			if err != errMissingFF00 && err != errShortHuffmanData {
				return 0, err
			}
			// There are no more bytes of data in this segment, but we may still
			// be able to read the next symbol out of the previously read bits.
			// First, undo the readByte that the ensureNBits call made.
			if d.nUnreadable != 0 {
				d.unreadByteStuffedByte()
			}
			goto slowPath
		}
	}
	if v := h.lut[(d.bits.a>>uint32(d.bits.n-lutSize))&0xff]; v != 0 {
		n := (v & 0xff) - 1
		d.bits.n -= int32(n)
		d.bits.m >>= n
		return uint8(v >> 8), nil
	}

slowPath:
	for i, code := 0, int32(0); i < maxCodeLength; i++ {
		if d.bits.n == 0 {
			if err := d.ensureNBits(1); err != nil {
				return 0, err
			}
		}
		if d.bits.a&d.bits.m != 0 {
			code |= 1
		}
		d.bits.n--
		d.bits.m >>= 1
		if code <= h.maxCodes[i] {
			return h.vals[h.valsIndices[i]+code-h.minCodes[i]], nil
		}
		code <<= 1
	}
	return 0, formatError("bad Huffman code")
}

// decodeLong decodes a code longer than fastBits bits from the top of
// acc by the canonical walk of decodeHuffman's slow path, for a prefix
// code whose fast table matched no shorter code there. ok is false when
// no code of up to 16 bits matches.
func (h *huffman) decodeLong(acc uint64) (value uint8, length uint, ok bool) {
	for l := uint(fastBits + 1); l <= maxCodeLength; l++ {
		if code := int32(acc >> (64 - l)); code <= h.maxCodes[l-1] {
			return h.vals[h.valsIndices[l-1]+code-h.minCodes[l-1]], l, true
		}
	}
	return 0, 0, false
}

// fill tops up acc, whose high nbits bits are unread, from data[pos:]:
// the next eight bytes at once when none is 0xFF, else byte by byte,
// undoing 0xFF00 stuffing, until more than 56 bits are unread or a
// marker or the end of data comes next. It returns the new acc, nbits
// and pos, and how many bytes it added after unstuffing.
func fill(data []byte, acc uint64, nbits uint, pos int) (uint64, uint, int, int) {
	if pos+8 <= len(data) {
		w := binary.BigEndian.Uint64(data[pos:])
		if (^w-0x0101010101010101)&w&0x8080808080808080 == 0 {
			k := (64 - nbits) >> 3
			acc |= w >> (64 - 8*k) << (64 - 8*k - nbits)
			return acc, nbits + 8*k, pos + int(k), int(k)
		}
	}
	added := 0
	for nbits <= 56 && pos < len(data) {
		c := data[pos]
		if c == 0xff {
			if pos+1 == len(data) || data[pos+1] != 0x00 {
				break
			}
			pos++
		}
		pos++
		acc |= uint64(c) << (56 - nbits)
		nbits += 8
		added++
	}
	return acc, nbits, pos, added
}

// decodeBlockFast entropy-decodes one block of a sequential scan into
// b, which is zero, with DC predictor *dc and the tables dcH and acH,
// both prefix codes, and returns one past the last zig-zag position it
// wrote. It does what decodeHuffman and receiveExtend do for the block,
// from a 64-bit accumulator in locals that fill refills, and then
// leaves d.bits, d.i and d.nUnreadable as they would have: those read
// bytes lazily, only when a decodeHuffman holds fewer than 8 bits or a
// receiveExtend fewer than its size, so the bytes they read end with
// the one that holds the later of the last symbol's 8th bit and the
// block's last bit, and fill's bytes past it are given back.
//
// A block is decoded whole or not at all: where the slow path might
// fail or keep state (a marker or the end of data within 32 bits of a
// symbol, a code no table matches, a DC size over 16 or an end-of-band
// run), ok is false, d and *dc are untouched, and the caller decodes the
// block again on the slow path, which then does exactly what it always
// did.
func (d *decoder) decodeBlockFast(b *block, dc *int32, dcH, acH *huffman) (nz int, ok bool) {
	data, start := d.data, d.i
	nbits := uint(d.bits.n)
	acc := uint64(d.bits.a) << (64 - nbits)
	acc, nbits, pos, loaded := fill(data, acc, nbits, start)
	if nbits < 32 {
		return 0, false
	}
	// nh is nbits when the block's last symbol started.
	nh := nbits

	// The DC coefficient, as in processSOS.
	v := dcH.fast[acc>>(64-fastBits)]
	value, l := uint8(v>>8), uint(v&0xff)
	if v == 0 {
		if value, l, ok = dcH.decodeLong(acc); !ok {
			return 0, false
		}
	}
	if value > 16 {
		return 0, false
	}
	acc <<= l
	diff := extend(int32(acc>>(64-uint(value))), value)
	acc <<= value
	nbits -= l + uint(value)
	pred := *dc + diff
	b[0] = pred
	nz = 1

	// The AC coefficients.
	for zig := 1; zig < blockSize; zig++ {
		if nbits < 32 {
			var added int
			acc, nbits, pos, added = fill(data, acc, nbits, pos)
			loaded += added
			if nbits < 32 {
				return 0, false
			}
		}
		nh = nbits
		if e := acH.fastAC[acc>>(64-fastBits)]; e != 0 {
			if z := zig + int(e>>4&0x0f); z < blockSize {
				zig = z
				b[unzig[zig]] = e >> 8
				nz = zig + 1
				acc <<= uint(e & 0x0f)
				nbits -= uint(e & 0x0f)
				continue
			}
		}
		v := acH.fast[acc>>(64-fastBits)]
		value, l := uint8(v>>8), uint(v&0xff)
		if v == 0 {
			if value, l, ok = acH.decodeLong(acc); !ok {
				return 0, false
			}
		}
		acc <<= l
		nbits -= l
		run, size := int(value>>4), value&0x0f
		if size != 0 {
			zig += run
			if zig >= blockSize {
				break
			}
			b[unzig[zig]] = extend(int32(acc>>(64-uint(size))), size)
			nz = zig + 1
			acc <<= size
			nbits -= uint(size)
		} else if run == 0x0f {
			zig += 0x0f
		} else if run == 0 {
			break // end of block
		} else {
			return 0, false // an end-of-band run
		}
	}

	// The slow path read the bytes up to the later of bit nh-8 and bit
	// nbits below the top of what fill loaded; give the rest back.
	back := min(loaded, int(min(nh-8, nbits)>>3))
	if pos-start == loaded { // no stuffed byte among them
		pos -= back
		if back < loaded {
			d.nUnreadable = 1
		}
	} else {
		for range back {
			pos = unstuffedStart(data, start, pos)
		}
		if back < loaded {
			d.nUnreadable = pos - unstuffedStart(data, start, pos)
		}
	}
	n := nbits - 8*uint(back)
	d.i = pos
	d.bits = bits{a: uint32(acc >> (64 - n)), n: int32(n)}
	if n > 0 {
		d.bits.m = 1 << (n - 1)
	}
	*dc = pred
	return nz, true
}

// unstuffedStart returns where the entropy-coded byte that ends at
// data[end-1] starts, end-2 for a stuffed 0xFF00 and end-1 otherwise,
// for a byte read at or after start.
func unstuffedStart(data []byte, start, end int) int {
	if end-2 >= start && data[end-1] == 0x00 && data[end-2] == 0xff {
		return end - 2
	}
	return end - 1
}

func (d *decoder) decodeBit() (bool, error) {
	if d.bits.n == 0 {
		if err := d.ensureNBits(1); err != nil {
			return false, err
		}
	}
	ret := d.bits.a&d.bits.m != 0
	d.bits.n--
	d.bits.m >>= 1
	return ret, nil
}

func (d *decoder) decodeBits(n int32) (uint32, error) {
	if d.bits.n < n {
		if err := d.ensureNBits(n); err != nil {
			return 0, err
		}
	}
	ret := d.bits.a >> uint32(d.bits.n-n)
	ret &= (1 << uint32(n)) - 1
	d.bits.n -= n
	d.bits.m >>= uint32(n)
	return ret, nil
}
