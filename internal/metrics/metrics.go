// Package metrics is the repo's unified telemetry layer: a small,
// dependency-free registry of named counters, gauges, and windowed
// histograms, with consistent snapshotting and JSON export.
//
// TrainBox's argument is quantitative — data preparation must keep up
// with accelerator demand, and the balance has to be re-measured as the
// system evolves (Section V). Every hot path of the reproduction
// therefore reports into a Registry: pipeline stages, the dataprep
// executor, the FPGA pool and P2P handlers, the training driver, and
// the storage layer. A snapshot of the registry is the
// machine-readable evidence train.Result carries and the serving
// front-end's GET /v1/metrics returns.
//
// Design rules:
//
//   - No background goroutines. Nothing ticks: every instrument is
//     updated by its caller and read on demand, so attaching metrics
//     never leaks a goroutine.
//   - Nil-safety. Every metric method is a no-op on a nil receiver, and
//     a nil *Registry hands out nil metrics — components wire metric
//     handles unconditionally and pay nothing when unmetered.
//   - Snapshot isolation. Snapshot() deep-copies: mutating the registry
//     afterwards never changes an already-taken snapshot.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n may be any sign, but counters are meant to grow).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level — a queue depth, a utilization, an
// overlap ratio. Stored as float64 bits for atomic access.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer level.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a namespace of metrics. Get-or-create accessors make
// wiring idempotent: two components asking for the same name share the
// metric. Counters, gauges, and histograms live in separate
// kind-spaces (and separate snapshot sections), so a name identifies a
// (kind, name) pair.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default window,
// creating it on first use. A nil registry returns a nil (no-op)
// histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(DefaultWindow)
		r.histograms[name] = h
	}
	return h
}
