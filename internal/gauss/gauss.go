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
	// Bits is the width of one Table index.
	Bits = 12
	// Levels is the number of quantiles in Table.
	Levels = 1 << Bits
	// PerWord is how many indices one Next word carries.
	PerWord = 64 / Bits
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

// Next returns the next word of the stream and the stream advanced
// past it: the word's PerWord Bits-wide fields, low bits first, are the
// next PerWord indices, and its top four bits are unused. A kernel that
// needs fewer than PerWord indices from its last word uses the low
// fields and drops the rest. Taking and returning the stream by value
// lets a kernel loop (w, st = st.Next()) keep the state in a register.
func (s Stream) Next() (uint64, Stream) {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31, s
}
