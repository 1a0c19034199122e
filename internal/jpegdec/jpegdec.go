// Package jpegdec measures the paper's Section V-B split of JPEG decode
// on the decoder the system runs, imgproc's. Decoding has two phases:
//
//  1. entropy decoding — a bit-serial Huffman walk where every decoded
//     symbol's length determines where the next symbol begins ("there
//     is no good parallel algorithm for the Huffman decoding phase",
//     Section V-B), and
//  2. block transforms — dequantization, inverse DCT, upsampling and
//     colour conversion, all embarrassingly parallel across 8×8 blocks.
//
// imgproc.DecodeJPEGCropInto entropy-decodes every MCU but transforms
// only the blocks its window reads, so a 1×1-window decode times the
// headers, the whole serial walk and one block per component. Decode
// runs that probe once untimed to warm imgproc's decoder, then times it
// and the full decode, and charges the difference to the transforms
// (DecodeStats): the quantitative basis for "GPUs cannot efficiently
// handle data formatting".
package jpegdec

import (
	"time"

	"trainbox/internal/imgproc"
)

// DecodeStats reports where decode time went.
type DecodeStats struct {
	// EntropyNanos is the wall time of a 1×1-window decode: the
	// bit-serial Huffman phase plus headers and one block per component.
	EntropyNanos int64
	// TransformNanos is the full decode's wall time minus EntropyNanos:
	// the parallelizable dequant+IDCT+colour phase. Timer noise can make
	// one decode's value negative, so callers sum over a corpus.
	TransformNanos int64
}

// SerialShare returns the entropy phase's fraction of total decode time.
func (s DecodeStats) SerialShare() float64 {
	total := s.EntropyNanos + s.TransformNanos
	if total == 0 {
		return 0
	}
	return float64(s.EntropyNanos) / float64(total)
}

// Decoder holds the probe's and the full decode's images, so a warm
// Decode allocates nothing. A Decoder is not safe for concurrent use.
type Decoder struct {
	probe, full imgproc.Image
}

// NewDecoder returns an empty Decoder; its buffers grow on first use.
func NewDecoder() *Decoder { return &Decoder{} }

// Decode decodes a JPEG with imgproc and reports the phase split. The
// returned Image is owned by the Decoder and valid until the next call.
func (d *Decoder) Decode(data []byte) (*imgproc.Image, DecodeStats, error) {
	// An untimed probe first: imgproc pools its decoders, and after a GC
	// empties that pool the first decode pays for a cold one, which the
	// timed probe would charge to the entropy phase.
	if err := imgproc.DecodeJPEGCropInto(&d.probe, data, 0, 0, 1, 1); err != nil {
		return nil, DecodeStats{}, err
	}
	start := time.Now()
	if err := imgproc.DecodeJPEGCropInto(&d.probe, data, 0, 0, 1, 1); err != nil {
		return nil, DecodeStats{}, err
	}
	probed := time.Now()
	if err := imgproc.DecodeJPEGInto(&d.full, data); err != nil {
		return nil, DecodeStats{}, err
	}
	entropy := probed.Sub(start).Nanoseconds()
	return &d.full, DecodeStats{EntropyNanos: entropy, TransformNanos: time.Since(probed).Nanoseconds() - entropy}, nil
}
