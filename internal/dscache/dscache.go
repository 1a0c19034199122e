// Package dscache is the shared dataset cache tier: a size-bounded,
// ref-counted cache of *decoded* sample representations layered over
// internal/storage, in the style of FFCV's decode-cheap cached dataset
// format. The expensive, deterministic part of sample preparation —
// JPEG or PCM decode — runs once per (object key, prep fingerprint);
// every concurrent consumer (N training jobs sharing one dataset, or N
// epochs of one job) reuses the decoded bytes and runs only its own
// cheap, seeded augmentation downstream. A single-flight populate
// protocol guarantees one decoder per key with all other consumers
// waiting on its result, and CLOCK eviction keeps residency under a
// byte budget.
//
// The cached representation is the pre-augmentation decode output, so
// the cached path is bit-identical to the uncached path: augmentation
// is seeded per (dataset seed, key, epoch) and runs after the cache in
// both cases (asserted by the oracle tests here and in dataprep).
//
// Entry payload buffers draw from and return to a memframe Set owned by
// the cache, so eviction churn recycles a bounded working set instead
// of allocating per populate.
package dscache

import (
	"context"
	"fmt"
	"sync"

	"trainbox/internal/imgproc"
	"trainbox/internal/memframe"
	"trainbox/internal/metrics"
	"trainbox/internal/units"
)

// Decoded is one cached sample representation: exactly one of the
// fields is set, matching the sample's modality. The contents are
// immutable once cached — consumers must treat an Image as a read-only
// crop source and must copy Signal before mutating augmentation (the
// cached image preparers here do exactly that).
type Decoded struct {
	// Image is a decoded (pre-crop, pre-augment) image.
	Image *imgproc.Image
	// Signal is a decoded PCM signal.
	Signal []float64
}

// Bytes is the representation's resident size, the unit of the cache
// budget.
func (d Decoded) Bytes() int64 {
	var n int64
	if d.Image != nil {
		n += int64(len(d.Image.Pix))
	}
	n += int64(8 * len(d.Signal))
	return n
}

// ckey is the cache key: the storage object key plus the prep config
// fingerprint, so two jobs with decode-incompatible configs never share
// an entry.
type ckey struct{ key, fp string }

// entry is one resident (or in-flight) decoded sample.
type entry struct {
	ck        ckey
	d         Decoded
	bytes     int64
	refs      int           // consumers holding a Handle (or waiting)
	refbit    bool          // CLOCK reference bit
	populated bool          // d is valid; false while the decode is in flight
	err       error         // terminal decode error (entry already unmapped)
	done      chan struct{} // closed when the populate resolves either way
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Acquires served from an existing entry — including
	// single-flight waiters, which additionally count in
	// SingleflightWaits.
	Hits int64
	// Misses counts decode invocations (one per populate attempt); with
	// no cache every Acquire would have been a decode, so
	// Hits+Misses−Misses quantifies the decodes amortized away.
	Misses int64
	// Evictions counts entries removed to fit the byte budget (Purge
	// included).
	Evictions int64
	// SingleflightWaits counts consumers that blocked on another
	// consumer's in-flight decode instead of decoding themselves.
	SingleflightWaits int64
	// BytesResident is the current resident payload volume.
	BytesResident int64
	// Entries is the current entry count (in-flight included).
	Entries int64
}

// Cache is the shared tier. All methods are safe for concurrent use.
type Cache struct {
	name   string
	budget int64
	frames *memframe.Set

	mu      sync.Mutex
	entries map[ckey]*entry
	ring    []*entry // CLOCK ring over populated entries
	hand    int
	bytes   int64
	stats   Stats

	mHits, mMisses, mEvictions, mWaits *metrics.Counter
	mBytes, mEntries                   *metrics.Gauge
}

// Option configures a Cache at construction.
type Option func(*Cache)

// WithName sets the metric-facing tier name (default "tier"); metrics
// bind under "dscache.<name>.*".
func WithName(name string) Option {
	return func(c *Cache) {
		if name != "" {
			c.name = name
		}
	}
}

// New builds a cache with the given resident-byte budget. Referenced
// entries are never evicted, so residency can transiently exceed the
// budget while consumers hold more than it; eviction catches up as
// handles are released. A budget of 0 still deduplicates concurrent
// decodes (single-flight) but keeps nothing resident beyond live
// references.
func New(budget units.Bytes, opts ...Option) *Cache {
	c := &Cache{
		name:    "tier",
		budget:  int64(budget),
		frames:  memframe.NewSet(),
		entries: make(map[ckey]*entry),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// WithMetrics binds the cache to reg under "dscache.<name>.*"
// (hits, misses, evictions, singleflight_waits counters;
// bytes_resident, entries gauges) and returns c for chaining. Call
// before serving traffic; a nil registry detaches.
func (c *Cache) WithMetrics(reg *metrics.Registry) *Cache {
	if reg == nil {
		c.mHits, c.mMisses, c.mEvictions, c.mWaits = nil, nil, nil, nil
		c.mBytes, c.mEntries = nil, nil
		return c
	}
	prefix := "dscache." + c.name + "."
	c.mHits = reg.Counter(prefix + "hits")
	c.mMisses = reg.Counter(prefix + "misses")
	c.mEvictions = reg.Counter(prefix + "evictions")
	c.mWaits = reg.Counter(prefix + "singleflight_waits")
	c.mBytes = reg.Gauge(prefix + "bytes_resident")
	c.mEntries = reg.Gauge(prefix + "entries")
	return c
}

// Name returns the tier name.
func (c *Cache) Name() string { return c.name }

// Handle is a reference-counted lease on one cached representation.
// The payload stays resident (never evicted) until Release; release
// exactly once, after the last read. Handles are values — copy freely,
// release once.
type Handle struct {
	c *Cache
	e *entry
}

// Image returns the cached decoded image (nil for audio entries). Read
// only — the buffer is shared by every consumer of the entry.
func (h Handle) Image() *imgproc.Image { return h.e.d.Image }

// Signal returns the cached decoded PCM signal (nil for image entries).
// Read only — copy before mutating.
func (h Handle) Signal() []float64 { return h.e.d.Signal }

// Release returns the lease. After the last release an entry becomes
// evictable; if the cache is over budget the eviction clock runs
// immediately.
func (h Handle) Release() {
	if h.c == nil || h.e == nil {
		return
	}
	c := h.c
	c.mu.Lock()
	h.e.refs--
	if h.e.refs < 0 {
		c.mu.Unlock()
		panic(fmt.Sprintf("dscache: %s: double release of %q", c.name, h.e.ck.key))
	}
	if c.bytes > c.budget {
		c.evictLocked()
	}
	c.mu.Unlock()
}

// Acquire returns a handle on the decoded representation of (key, fp),
// decoding at most once per resident lifetime: the first consumer runs
// decode (drawing payload buffers from pool, the cache's memframe Set)
// while every concurrent consumer of the same key waits for that one
// result — the single-flight contract. A decode error is returned to
// the decoder and every waiter, and the entry is unmapped so a later
// Acquire retries. ctx bounds only the wait on another consumer's
// decode; the decode itself runs to completion under the decoder's
// call.
func (c *Cache) Acquire(ctx context.Context, key, fp string, decode func(pool *memframe.Set) (Decoded, error)) (Handle, error) {
	k := ckey{key: key, fp: fp}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		e.refs++
		if !e.populated {
			c.stats.SingleflightWaits++
			c.mWaits.Inc()
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				c.mu.Lock()
				e.refs--
				c.mu.Unlock()
				return Handle{}, ctx.Err()
			}
			c.mu.Lock()
		}
		if e.err != nil {
			err := e.err
			e.refs--
			c.mu.Unlock()
			return Handle{}, err
		}
		e.refbit = true
		c.stats.Hits++
		c.mHits.Inc()
		c.mu.Unlock()
		return Handle{c: c, e: e}, nil
	}

	// Miss: this consumer is the decoder.
	e := &entry{ck: k, refs: 1, done: make(chan struct{})}
	c.entries[k] = e
	c.stats.Misses++
	c.mMisses.Inc()
	c.gaugesLocked()
	c.mu.Unlock()

	d, err := decode(c.frames)

	c.mu.Lock()
	if err != nil {
		e.err = err
		e.refs--
		delete(c.entries, k)
		close(e.done)
		c.gaugesLocked()
		c.mu.Unlock()
		return Handle{}, err
	}
	e.d = d
	e.bytes = d.Bytes()
	e.populated = true
	// The reference bit starts cleared: an entry earns its second
	// chance on its first re-hit, so one-touch entries evict before
	// anything a consumer came back for (scan resistance).
	c.bytes += e.bytes
	c.ring = append(c.ring, e)
	if c.bytes > c.budget {
		c.evictLocked()
	}
	close(e.done)
	c.gaugesLocked()
	c.mu.Unlock()
	return Handle{c: c, e: e}, nil
}

// OrderKeys returns keys reordered cache-aware: resident keys first,
// then the rest, each half keeping its input order. Iterating an
// epoch's permutation this way consumes what is already decoded before
// paying for misses — under a tight budget, concurrent jobs then ride
// each other's populates instead of thrashing the clock.
func (c *Cache) OrderKeys(keys []string, fp string) []string {
	out := make([]string, 0, len(keys))
	var cold []string
	c.mu.Lock()
	for _, k := range keys {
		if e, ok := c.entries[ckey{key: k, fp: fp}]; ok && e.populated {
			out = append(out, k)
		} else {
			cold = append(cold, k)
		}
	}
	c.mu.Unlock()
	return append(out, cold...)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesResident = c.bytes
	s.Entries = int64(len(c.entries))
	return s
}

// PoolStats returns the aggregated counters of the cache's payload
// pools — after Purge, Gets == Puts means no payload buffer leaked.
func (c *Cache) PoolStats() memframe.Stats { return c.frames.Stats() }

// Purge evicts every unreferenced populated entry regardless of budget
// and returns how many were dropped. In-flight and referenced entries
// stay.
func (c *Cache) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for i := 0; i < len(c.ring); {
		if c.ring[i].refs > 0 {
			i++
			continue
		}
		c.evictEntryLocked(i)
		dropped++
	}
	c.gaugesLocked()
	return dropped
}

// evictLocked runs the CLOCK hand until residency fits the budget or
// nothing more is evictable (every entry referenced). Entries get one
// second chance via the reference bit, set on every hit.
func (c *Cache) evictLocked() {
	scanned := 0
	for c.bytes > c.budget && len(c.ring) > 0 && scanned <= 2*len(c.ring) {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if e.refs > 0 {
			c.hand++
			scanned++
			continue
		}
		if e.refbit {
			e.refbit = false
			c.hand++
			scanned++
			continue
		}
		c.evictEntryLocked(c.hand)
		scanned = 0
	}
	c.gaugesLocked()
}

// evictEntryLocked removes ring[i], unmaps it, and recycles its payload
// buffers into the cache's pools.
func (c *Cache) evictEntryLocked(i int) {
	e := c.ring[i]
	c.ring = append(c.ring[:i], c.ring[i+1:]...)
	if c.hand > i {
		c.hand--
	}
	delete(c.entries, e.ck)
	c.bytes -= e.bytes
	if e.d.Image != nil {
		c.frames.U8.Put(e.d.Image.Pix)
	}
	if e.d.Signal != nil {
		c.frames.F64.Put(e.d.Signal)
	}
	c.stats.Evictions++
	c.mEvictions.Inc()
}

// gaugesLocked refreshes the residency gauges.
func (c *Cache) gaugesLocked() {
	c.mBytes.SetInt(c.bytes)
	c.mEntries.SetInt(int64(len(c.entries)))
}
