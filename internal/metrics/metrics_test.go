package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"trainbox/internal/invariant"
)

// TestConcurrentIncrements hammers one counter, gauge, and histogram
// from many goroutines; run under -race in CI it proves the
// hot-path operations are data-race free, and the final counts prove no
// increments are lost.
func TestConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create from every goroutine: handles must converge on
			// the same metric.
			c := reg.Counter("c")
			g := reg.Gauge("g")
			h := reg.Histogram("h")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetInt(int64(i))
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	const want = workers * perWorker
	if got := reg.Counter("c").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := reg.Gauge("g").Value(); got < 0 || got >= perWorker {
		t.Errorf("gauge = %v, want one of the levels set", got)
	}
	if got := reg.Histogram("h").Snapshot().Count; got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
}

// TestSnapshotIsolation: a taken snapshot must not change when the
// registry's metrics keep moving.
func TestSnapshotIsolation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("items").Add(10)
	reg.Gauge("depth").Set(3)
	reg.Histogram("lat").Observe(100)

	snap := reg.Snapshot()

	reg.Counter("items").Add(90)
	reg.Gauge("depth").Set(7)
	reg.Histogram("lat").Observe(900)
	reg.Counter("new").Inc()

	if got := snap.Counters["items"]; got != 10 {
		t.Errorf("snapshot counter mutated: %d, want 10", got)
	}
	if got := snap.Gauges["depth"]; got != 3 {
		t.Errorf("snapshot gauge mutated: %v, want 3", got)
	}
	if got := snap.Histograms["lat"]; got.Count != 1 || got.Max != 100 {
		t.Errorf("snapshot histogram mutated: %+v", got)
	}
	if _, ok := snap.Counters["new"]; ok {
		t.Error("snapshot grew a metric registered after it was taken")
	}
}

// TestNilSafety: nil registries and nil metrics must be usable no-ops,
// the contract that lets components wire metrics unconditionally.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x")
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.SetInt(2)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil metrics must read as zero")
	}
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot has metrics: %+v", snap)
	}
	if (HistogramSnapshot{}) != h.Snapshot() {
		t.Error("nil histogram snapshot must be zero")
	}
}

// TestNoBackgroundGoroutines: creating registries, metrics, and
// snapshots must not leave any goroutine behind — the metrics layer is
// wired into long-lived servers and must never leak a ticker.
func TestNoBackgroundGoroutines(t *testing.T) {
	invariant.NoLeak(t)
	for i := 0; i < 50; i++ {
		reg := NewRegistry()
		reg.Counter("c").Inc()
		reg.Histogram("h").Observe(1)
		reg.Gauge("g").Set(1)
		_ = reg.Snapshot()
	}
}

// TestSnapshotJSON: the snapshot must round-trip through JSON with the
// documented section names — the schema GET /v1/metrics serves.
func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.items").Add(3)
	reg.Gauge("a.depth").Set(1.5)
	reg.Histogram("a.lat").Observe(42)

	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.items"] != 3 {
		t.Errorf("counter lost in round-trip: %+v", back)
	}
	if back.Gauges["a.depth"] != 1.5 {
		t.Errorf("gauge lost in round-trip: %+v", back)
	}
	if back.Histograms["a.lat"].Count != 1 {
		t.Errorf("histogram lost in round-trip: %+v", back)
	}
}

// TestGetOrCreateSharing: the same name must return the same metric, so
// independently wired components aggregate into one series.
func TestGetOrCreateSharing(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shared").Inc()
	reg.Counter("shared").Inc()
	if got := reg.Counter("shared").Value(); got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
	if reg.Histogram("h") != reg.Histogram("h") {
		t.Error("same-name histograms are distinct instances")
	}
}
