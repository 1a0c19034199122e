package metrics

import (
	"sort"
	"sync"
	"time"
)

// DefaultWindow is the observation window of registry-created
// histograms: quantiles are computed over the most recent DefaultWindow
// observations, while count/sum/min/max cover the histogram's lifetime.
const DefaultWindow = 2048

// Histogram records a stream of observations (latencies in nanoseconds,
// sizes in bytes) and reports lifetime aggregates plus windowed
// quantiles over the most recent observations. It is safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	window []float64 // ring buffer of the last cap(window) observations
	next   int       // ring write cursor
	filled bool      // true once the ring has wrapped

	count    int64
	sum      float64
	min, max float64
}

// NewHistogram creates a histogram whose quantiles are computed over a
// sliding window of the given size (window < 1 selects DefaultWindow).
func NewHistogram(window int) *Histogram {
	if window < 1 {
		window = DefaultWindow
	}
	return &Histogram{window: make([]float64, 0, window)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.window) < cap(h.window) {
		h.window = append(h.window, v)
		return
	}
	h.window[h.next] = v
	h.next++
	if h.next == cap(h.window) {
		h.next = 0
		h.filled = true
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d.Nanoseconds()))
}

// HistogramSnapshot is a histogram's exported state. Count, Sum, Mean,
// Min, and Max are lifetime aggregates; the quantiles are computed over
// the current observation window.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot copies out the current state. The snapshot is isolated:
// later observations do not change it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	if len(h.window) == 0 {
		return s
	}
	sorted := append([]float64(nil), h.window...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.50)
	s.P95 = quantile(sorted, 0.95)
	s.P99 = quantile(sorted, 0.99)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of a sorted sample using
// linear interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
