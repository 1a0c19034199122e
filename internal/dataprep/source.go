package dataprep

// The constants and the seeding reduction below are math/rand's
// (rng.go): a lagged-Fibonacci register of rngLen words with its tap
// rngTap words behind the feed.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// seedPowers[i][j] is 48271^(21+3i+j) mod (2³¹−1): the power of the
// seeding generator's multiplier that produces the j-th of the three
// states word i of a seeded source packs.
var seedPowers = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for range 20 {
		x = x * 48271 % int32max
	}
	for i := range p {
		for j := range p[i] {
			x = x * 48271 % int32max
			p[i][j] = x
		}
	}
	return p
}()

// seededSource is the rand.Source64 rand.NewSource(seed) returns,
// computed only as far as the draws read it. A seeded math/rand source
// runs 1,841 steps of the generator x ← 48271·x mod (2³¹−1) to fill
// its 607-word register, and a prepared sample then draws about four
// words. Here:
//
//   - Seed keeps the seed reduced as rngSource.Seed reduces it
//     (seed mod 2³¹−1, plus 2³¹−1 when negative, 0 → 89482311).
//   - Word i of the seeded register is x₀<<40 ^ x₁<<20 ^ x₂ ^
//     rngCooked[i], with x_j = seed·48271^(21+3i+j) mod (2³¹−1):
//     rngSource's Schrage step is an exact modular product, so the
//     word is three multiply-mods against seedPowers.
//   - Draw k ≤ rngTap of a fresh register adds word 334−k to word
//     607−k: the feed index walks down from 334 and the tap index from
//     607, and the tap first reaches a word the feed has rewritten at
//     draw 274.
//   - Draw rngTap+1 fills the register once with the word formula,
//     replays the rngTap feed additions, and from then on the source
//     steps as rngSource does.
//
// The sequence is rand.NewSource(seed)'s bit for bit, including
// Uint64, which rand.Rand uses for a Source64 instead of two Int63
// draws. FuzzSeededSourceMatchesStdlib checks it against the stdlib.
// The zero value is not seeded: call Seed before the first draw.
type seededSource struct {
	seed  uint64 // the reduced seed, in [1, 2³¹−2]
	drawn int    // draws since Seed, counted up to rngTap
	live  bool   // vec holds the register: more than rngTap draws since Seed
	tap   int
	feed  int
	vec   *[rngLen]int64 // allocated at the first fill, kept across Seed
}

// Seed resets the source to rand.NewSource(seed)'s sequence.
func (s *seededSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed, s.drawn, s.live = uint64(seed), 0, false
}

// Int63 returns the next draw with its top bit cleared.
func (s *seededSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next draw.
func (s *seededSource) Uint64() uint64 {
	if s.drawn < rngTap {
		s.drawn++
		return s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn)
	}
	if !s.live {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// word returns word i of the freshly seeded register.
func (s *seededSource) word(i int) uint64 {
	p := &seedPowers[i]
	return s.seed*p[0]%int32max<<40 ^ s.seed*p[1]%int32max<<20 ^ s.seed*p[2]%int32max ^ uint64(rngCooked[i])
}

// fill materializes the register as it stands after rngTap draws.
func (s *seededSource) fill() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = int64(s.word(i))
	}
	for k := 1; k <= rngTap; k++ {
		s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
	}
	s.tap, s.feed, s.live = rngLen-rngTap, rngLen-2*rngTap, true
}
