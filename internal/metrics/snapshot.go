package metrics

// Snapshot is a point-in-time copy of every metric in a registry,
// grouped by kind. It is fully detached from the registry: later metric
// updates never alter a taken snapshot. The zero value is an empty
// snapshot. It marshals to stable JSON (map keys sort lexically under
// encoding/json), which is what GET /v1/metrics serves.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies out every registered metric. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	// Copy the metric pointers under the registry lock, then read each
	// metric outside it — metric reads take their own synchronization.
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, g := range gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(histograms))
		for k, h := range histograms {
			s.Histograms[k] = h.Snapshot()
		}
	}
	return s
}
