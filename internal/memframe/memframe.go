// Package memframe is the arena-style scratch layer of the
// zero-allocation sample path: size-classed, pool-backed slice buffers
// with explicit ownership rules and reuse counters.
//
// The paper's system model rests on calibrated per-sample kernel costs
// (decode, augment, cast — Tables II and III); on the host those costs
// are dominated not by arithmetic but by per-sample allocation and
// copying (Yang & Cong; FFCV makes removing exactly this overhead worth
// integer-factor speedups). memframe gives every layer of the
// decode→augment→cast path one way to recycle a bounded working set
// instead of reallocating it per sample.
//
// # Ownership rules
//
//   - Get transfers ownership of the returned slice to the caller.
//     The contents are STALE — whatever the previous owner left there.
//     Callers must fully overwrite every element they read.
//   - Put transfers ownership back. The caller must drop every
//     reference first: touching a slice after Put is a data race with
//     the next Get. Put is only legal for the current owner; putting a
//     slice twice, or one that something else still reads, corrupts the
//     next consumer.
//   - A Pool is safe for concurrent use; the slices it hands out are
//     not shared — exactly one goroutine owns a buffer between Get and
//     Put.
//   - Dropping a buffer instead of Put is always safe (the GC takes
//     it); it just costs a future allocation.
//
// DESIGN.md §12 documents how the data-preparation layers apply these
// rules end to end.
package memframe

import "sync"

const (
	// minClassBits is the smallest size class: 1<<6 = 64 elements.
	minClassBits = 6
	// maxClassBits is the largest size class: 1<<24 = 16Mi elements.
	// Larger requests are served by direct allocation and never pooled.
	maxClassBits = 24
	numClasses   = maxClassBits - minClassBits + 1
)

// Stats are cumulative pool counters. Gets − News is the number of
// allocations the pool avoided; News growing as fast as Gets means
// nothing is being recycled.
type Stats struct {
	// Gets counts buffers handed out.
	Gets int64
	// Puts counts buffers returned.
	Puts int64
	// News counts Gets that had to allocate (pool miss or oversized).
	News int64
	// Drops counts Puts discarded (unpoolable capacity or full class).
	Drops int64
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.News += o.News
	s.Drops += o.Drops
}

// Pool is a size-classed free list of []T scratch buffers. Size classes
// are powers of two from 64 to 16Mi elements; a Get is served from the
// smallest class that fits, so a buffer recycled from one call site can
// satisfy a differently-sized request from another. The zero value is
// ready to use.
//
// Each class keeps at most as many free buffers as the pool has ever
// had outstanding at once (the high-water mark of Gets − Puts): enough
// to serve a working set the consumers have shown they hold, and a
// bound that keeps the free lists from growing into a leak when Puts
// outnumber Gets.
type Pool[T any] struct {
	mu      sync.Mutex
	classes [numClasses][][]T
	stats   Stats
	high    int64 // most buffers outstanding at once
}

// classFor returns the index of the smallest class holding ≥ n
// elements, or -1 when n exceeds the largest class.
func classFor(n int) int {
	size := 1 << minClassBits
	for c := 0; c < numClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// classSize returns class c's capacity in elements.
func classSize(c int) int { return 1 << (minClassBits + c) }

// Get returns a length-n slice with STALE contents: the caller owns it
// until Put and must overwrite every element it reads. Requests larger
// than the biggest size class are allocated directly (and will be
// dropped again on Put). Get(0) returns nil.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := classFor(n)
	p.mu.Lock()
	p.stats.Gets++
	p.high = max(p.high, p.stats.Gets-p.stats.Puts)
	if c >= 0 {
		if free := p.classes[c]; len(free) > 0 {
			s := free[len(free)-1]
			free[len(free)-1] = nil
			p.classes[c] = free[:len(free)-1]
			p.mu.Unlock()
			return s[:n]
		}
	}
	p.stats.News++
	p.mu.Unlock()
	if c < 0 {
		return make([]T, n)
	}
	return make([]T, classSize(c))[:n]
}

// Put recycles a buffer for a later Get. The caller must not touch s
// afterwards. Buffers whose capacity is below the smallest class, above
// the largest, or whose class already keeps the high-water mark of
// outstanding buffers are dropped (counted in Stats.Drops) — Put never
// errors.
func (p *Pool[T]) Put(s []T) {
	n := cap(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if n < 1<<minClassBits || n > 1<<maxClassBits {
		// Below the smallest class or above the largest: unpoolable.
		p.stats.Drops++
		return
	}
	// File under the largest class the capacity fully covers, so a Get
	// from that class always has enough room.
	c := classFor(n)
	if classSize(c) > n {
		c--
	}
	if int64(len(p.classes[c])) >= p.high {
		p.stats.Drops++
		return
	}
	p.classes[c] = append(p.classes[c], s[:0])
}

// Stats samples the counters.
func (p *Pool[T]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Set bundles the element types the sample path recycles: pixel bytes,
// tensor float32s, signal/spectrogram float64s, FFT complex128s, and
// coefficient int32s. One Set is the shared recycle point between a
// producer (dataprep.Executor) and whichever consumer returns the
// output buffers (train's extract stage, a benchmark loop).
type Set struct {
	U8   Pool[uint8]
	F32  Pool[float32]
	F64  Pool[float64]
	C128 Pool[complex128]
	I32  Pool[int32]
}

// NewSet returns an empty Set.
func NewSet() *Set { return &Set{} }

// Stats aggregates every typed pool's counters.
func (s *Set) Stats() Stats {
	var out Stats
	out.add(s.U8.Stats())
	out.add(s.F32.Stats())
	out.add(s.F64.Stats())
	out.add(s.C128.Stats())
	out.add(s.I32.Stats())
	return out
}
