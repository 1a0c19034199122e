package dscache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trainbox/internal/imgproc"
	"trainbox/internal/memframe"
	"trainbox/internal/metrics"
	"trainbox/internal/units"
)

// decodeSignal fabricates a deterministic n-sample signal for key.
func decodeSignal(key string, n int) func(pool *memframe.Set) (Decoded, error) {
	return func(pool *memframe.Set) (Decoded, error) {
		sig := pool.F64.Get(n)
		for i := range sig {
			sig[i] = float64(len(key) + i)
		}
		return Decoded{Signal: sig}, nil
	}
}

func TestAcquireHitMissRelease(t *testing.T) {
	c := New(1 * units.MB)
	ctx := context.Background()
	var decodes atomic.Int64
	dec := func(pool *memframe.Set) (Decoded, error) {
		decodes.Add(1)
		return decodeSignal("a", 128)(pool)
	}
	h1, err := c.Acquire(ctx, "a", "fp", dec)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Acquire(ctx, "a", "fp", dec)
	if err != nil {
		t.Fatal(err)
	}
	if decodes.Load() != 1 {
		t.Fatalf("decodes = %d, want 1", decodes.Load())
	}
	if &h1.Signal()[0] != &h2.Signal()[0] {
		t.Fatal("two handles on one key returned different buffers")
	}
	h1.Release()
	h2.Release()
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", s)
	}
	if s.BytesResident != 8*128 || s.Entries != 1 {
		t.Fatalf("residency = %d bytes / %d entries, want %d / 1", s.BytesResident, s.Entries, 8*128)
	}
}

func TestFingerprintSeparatesConfigs(t *testing.T) {
	c := New(1 * units.MB)
	ctx := context.Background()
	h1, err := c.Acquire(ctx, "a", "fp1", decodeSignal("a", 64))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Acquire(ctx, "a", "fp2", decodeSignal("a", 64))
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	defer h2.Release()
	if &h1.Signal()[0] == &h2.Signal()[0] {
		t.Fatal("different fingerprints shared an entry")
	}
	if got := c.Stats().Misses; got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
}

// TestSingleFlight: N concurrent consumers of one cold key trigger
// exactly one decode; the rest wait and share its result.
func TestSingleFlight(t *testing.T) {
	c := New(1 * units.MB)
	const consumers = 16
	var decodes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	dec := func(pool *memframe.Set) (Decoded, error) {
		decodes.Add(1)
		close(started)
		<-release // hold the populate so every other consumer must wait
		return decodeSignal("k", 256)(pool)
	}
	var wg sync.WaitGroup
	errs := make([]error, consumers)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.Acquire(context.Background(), "k", "fp", dec)
			if err != nil {
				errs[i] = err
				return
			}
			if h.Signal()[0] != float64(1) {
				errs[i] = fmt.Errorf("bad payload %v", h.Signal()[0])
			}
			h.Release()
		}(i)
	}
	<-started
	// Give the other consumers a moment to queue up on the in-flight
	// entry, then let the decode finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
	}
	if decodes.Load() != 1 {
		t.Fatalf("decodes = %d, want 1 (single-flight)", decodes.Load())
	}
	s := c.Stats()
	if s.Hits != consumers-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, consumers-1)
	}
	if s.SingleflightWaits == 0 {
		t.Fatal("no consumer recorded a single-flight wait")
	}
}

// TestDecodeErrorSharedAndRetryable: the decode error reaches the
// decoder and every waiter, and the key is decodable again afterwards.
func TestDecodeErrorSharedAndRetryable(t *testing.T) {
	c := New(1 * units.MB)
	boom := fmt.Errorf("bad jpeg")
	if _, err := c.Acquire(context.Background(), "k", "fp", func(*memframe.Set) (Decoded, error) {
		return Decoded{}, boom
	}); err == nil {
		t.Fatal("decode error not returned")
	}
	h, err := c.Acquire(context.Background(), "k", "fp", decodeSignal("k", 64))
	if err != nil {
		t.Fatalf("retry after failed populate: %v", err)
	}
	h.Release()
	if c.Stats().Misses != 2 {
		t.Fatalf("misses = %d, want 2 (failed populate unmapped)", c.Stats().Misses)
	}
}

// TestWaiterContextCancel: a waiter bounded by its context abandons the
// wait without corrupting the entry for everyone else.
func TestWaiterContextCancel(t *testing.T) {
	c := New(1 * units.MB)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		h, err := c.Acquire(context.Background(), "k", "fp", func(pool *memframe.Set) (Decoded, error) {
			close(started)
			<-release
			return decodeSignal("k", 64)(pool)
		})
		if err == nil {
			h.Release()
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Acquire(ctx, "k", "fp", decodeSignal("k", 64)); err == nil {
		t.Fatal("cancelled waiter did not return an error")
	}
	close(release)
	// The entry must still resolve for a fresh consumer.
	h, err := c.Acquire(context.Background(), "k", "fp", decodeSignal("k", 64))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

// TestEvictionUnderBudget: populates beyond the budget evict the
// coldest unreferenced entries; referenced entries survive.
func TestEvictionUnderBudget(t *testing.T) {
	// Budget fits exactly two 128-sample signals (8*128 = 1 KiB each).
	c := New(2 * units.KB)
	ctx := context.Background()
	pinned, err := c.Acquire(ctx, "pinned", "fp", decodeSignal("pinned", 128))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h, err := c.Acquire(ctx, fmt.Sprintf("k%d", i), "fp", decodeSignal("k", 128))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	s := c.Stats()
	if s.BytesResident > 2*1024 {
		t.Fatalf("resident %d bytes exceeds budget with no live refs beyond it", s.BytesResident)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite populating 9 KiB into a 2 KiB budget")
	}
	if !resident(c, "pinned", "fp") {
		t.Fatal("referenced entry was evicted")
	}
	pinned.Release()
}

// TestClockSecondChance: a recently hit entry survives one eviction
// pass that removes a never-rehit sibling.
func TestClockSecondChance(t *testing.T) {
	c := New(2 * units.KB)
	ctx := context.Background()
	for _, k := range []string{"hot", "cold"} {
		h, err := c.Acquire(ctx, k, "fp", decodeSignal(k, 128))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// Rehit "hot" so its reference bit is set; "cold" keeps a cleared
	// bit once the clock sweeps past both.
	h, err := c.Acquire(ctx, "hot", "fp", decodeSignal("hot", 128))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	// A third populate forces one eviction; CLOCK must pick "cold"
	// (clearing hot's bit on the way) rather than "hot".
	h2, err := c.Acquire(ctx, "new", "fp", decodeSignal("new", 128))
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if !resident(c, "hot", "fp") {
		t.Fatal("recently hit entry evicted before its second chance")
	}
	if resident(c, "cold", "fp") {
		t.Fatal("cold entry survived over the hot one")
	}
}

// TestZeroBudgetStillSingleFlights: budget 0 keeps nothing resident but
// concurrent consumers of the in-flight decode still share it.
func TestZeroBudgetStillSingleFlights(t *testing.T) {
	c := New(0)
	h, err := c.Acquire(context.Background(), "k", "fp", decodeSignal("k", 64))
	if err != nil {
		t.Fatal(err)
	}
	// Resident while referenced (never evicted under a live handle).
	if !resident(c, "k", "fp") {
		t.Fatal("referenced entry not resident")
	}
	h.Release()
	if resident(c, "k", "fp") {
		t.Fatal("budget-0 cache kept an unreferenced entry")
	}
}

func TestOrderKeysResidentFirst(t *testing.T) {
	c := New(1 * units.MB)
	ctx := context.Background()
	for _, k := range []string{"b", "d"} {
		h, err := c.Acquire(ctx, k, "fp", decodeSignal(k, 64))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	got := c.OrderKeys([]string{"a", "b", "c", "d"}, "fp")
	want := []string{"b", "d", "a", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrderKeys = %v, want %v", got, want)
		}
	}
	// A different fingerprint sees nothing resident: order unchanged.
	got = c.OrderKeys([]string{"a", "b"}, "other")
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("OrderKeys(other fp) = %v, want input order", got)
	}
}

// TestPurgeClosesPoolBalance: after purging every entry, each payload
// buffer the cache drew has been returned — Gets == Puts.
func TestPurgeClosesPoolBalance(t *testing.T) {
	c := New(1 * units.MB)
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		h, err := c.Acquire(ctx, fmt.Sprintf("k%d", i), "fp", decodeSignal("k", 256))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if n := c.Purge(); n != 16 {
		t.Fatalf("Purge dropped %d entries, want 16", n)
	}
	st := c.PoolStats()
	if st.Gets != st.Puts {
		t.Fatalf("payload pool imbalance after purge: Gets=%d Puts=%d", st.Gets, st.Puts)
	}
	if s := c.Stats(); s.Entries != 0 || s.BytesResident != 0 {
		t.Fatalf("purged cache still resident: %+v", s)
	}
}

func TestImagePayloadAccounting(t *testing.T) {
	c := New(1 * units.MB)
	h, err := c.Acquire(context.Background(), "img", "fp", func(pool *memframe.Set) (Decoded, error) {
		img := &imgproc.Image{}
		img.Pix = pool.U8.Get(3 * 8 * 8)
		img.W, img.H = 8, 8
		return Decoded{Image: img}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.e.bytes != 3*8*8 {
		t.Fatalf("image entry bytes = %d, want %d", h.e.bytes, 3*8*8)
	}
	h.Release()
	c.Purge()
	if st := c.PoolStats(); st.Gets != st.Puts {
		t.Fatalf("image buffer not recycled: %+v", st)
	}
}

func TestMetricsNamesAndCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(4*units.KB, WithName("tier")).WithMetrics(reg)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		h, err := c.Acquire(ctx, fmt.Sprintf("k%d", i), "fp", decodeSignal("k", 128))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	h, err := c.Acquire(ctx, "k7", "fp", decodeSignal("k", 128))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	snap := reg.Snapshot()
	for _, name := range []string{
		"dscache.tier.hits", "dscache.tier.misses", "dscache.tier.evictions",
		"dscache.tier.singleflight_waits",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("counter %q missing (have %v)", name, counterNames(snap.Counters))
		}
	}
	for _, name := range []string{"dscache.tier.bytes_resident", "dscache.tier.entries"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %q missing", name)
		}
	}
	if got := snap.Counters["dscache.tier.misses"]; got != 8 {
		t.Fatalf("misses counter = %d, want 8", got)
	}
	if got := snap.Counters["dscache.tier.hits"]; got != 1 {
		t.Fatalf("hits counter = %d, want 1", got)
	}
	if got := snap.Counters["dscache.tier.evictions"]; got < 4 {
		t.Fatalf("evictions counter = %d, want >= 4", got)
	}
	if got := snap.Gauges["dscache.tier.bytes_resident"]; got > 4*1024 {
		t.Fatalf("bytes_resident gauge = %v, above budget", got)
	}
}

func counterNames(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		if strings.HasPrefix(k, "dscache.") {
			out = append(out, k)
		}
	}
	return out
}

// TestConcurrentChurn hammers a tight cache from many goroutines under
// -race: mixed keys, overlapping acquires, eviction pressure. The
// balance sheet must close at the end.
func TestConcurrentChurn(t *testing.T) {
	c := New(4 * units.KB)
	const (
		workers = 8
		rounds  = 200
		keys    = 12
	)
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("k%d", (w+i)%keys)
				h, err := c.Acquire(context.Background(), k, "fp", decodeSignal(k, 128))
				if err != nil {
					failures.Add(1)
					return
				}
				if h.Signal()[0] != float64(len(k)) {
					failures.Add(1)
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d worker failures", failures.Load())
	}
	s := c.Stats()
	if s.Hits+s.Misses != workers*rounds {
		t.Fatalf("hits %d + misses %d != %d acquires", s.Hits, s.Misses, workers*rounds)
	}
	if s.BytesResident > 4*1024 {
		t.Fatalf("resident %d bytes over budget with no live refs", s.BytesResident)
	}
	c.Purge()
	if st := c.PoolStats(); st.Gets != st.Puts {
		t.Fatalf("pool imbalance after churn: %+v", st)
	}
}

// resident reports whether (key, fp) is resident and populated.
func resident(c *Cache, key, fp string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[ckey{key: key, fp: fp}]
	return ok && e.populated
}
