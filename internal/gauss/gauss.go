// Package gauss is the one Gaussian noise source of the sample path:
// imgproc.GaussianNoiseInto and dsp.AddNoise both draw from it.
//
// A draw is a table lookup. Table holds the N(0,1) quantiles at
// (i+½)/4096, so the noise is a 4,096-level quantized Gaussian whose
// standard deviation is 0.99984 and whose tails are cut at ±3.67σ. The
// 12-bit table indices come from a splitmix64 stream, five to a 64-bit
// word, seeded by one Uint64 drawn from the caller's *rand.Rand: a
// kernel call advances the caller's generator by exactly one draw,
// however many values it noises.
package gauss

import (
	"math"
	"math/rand"
)

const (
	bits = 12
	// Levels is the number of quantiles in Table.
	Levels  = 1 << bits
	perWord = 64 / bits
	// Block is how many indices a kernel fills at a time: whole words,
	// small enough for a stack array.
	Block = 64 * perWord
)

// Table holds the N(0,1) quantiles at (i+½)/Levels in ascending order.
// It is read-only.
var Table = func() (t [Levels]float64) {
	for i := range t {
		p := (float64(i) + 0.5) / Levels
		t[i] = math.Sqrt2 * math.Erfinv(2*p-1)
	}
	return t
}()

// Stream yields uniformly distributed Table indices.
type Stream struct{ x uint64 }

// NewStream seeds a stream with one Uint64 drawn from rng.
func NewStream(rng *rand.Rand) Stream { return Stream{x: rng.Uint64()} }

// Fill writes the next len(idx) indices into idx, five per 64-bit
// word. The unused indices of a final partial word are skipped, so a
// stream's output depends on how it is cut into Fill calls; the kernels
// always cut it into Block-sized calls.
func (s *Stream) Fill(idx []uint16) {
	for len(idx) >= perWord {
		w := s.next()
		idx[0] = uint16(w & (Levels - 1))
		idx[1] = uint16(w >> bits & (Levels - 1))
		idx[2] = uint16(w >> (2 * bits) & (Levels - 1))
		idx[3] = uint16(w >> (3 * bits) & (Levels - 1))
		idx[4] = uint16(w >> (4 * bits) & (Levels - 1))
		idx = idx[perWord:]
	}
	if len(idx) > 0 {
		w := s.next()
		for i := range idx {
			idx[i] = uint16(w & (Levels - 1))
			w >>= bits
		}
	}
}

// next advances the splitmix64 sequence.
func (s *Stream) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
