package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers (nothing inside internal/ is instrumented). Parent is the id
// of the span that caused it, -1 for a root.
type span struct {
	ID     int
	Name   string
	Layer  string
	Job    string
	Epoch  int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	Parent int
	Lane   int // Chrome trace thread id: one lane per concurrent actor
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay no span cost.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name, layer, job string, epoch, parent, lane int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Layer: layer, Job: job, Epoch: epoch,
		Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, Lane: lane,
	})
	return id
}

// open reserves a parent span whose end is set by close, so children
// recorded in between can name it.
func (t *tracer) open(name, layer, job string, epoch, parent, lane int) int {
	now := time.Now()
	return t.add(name, layer, job, epoch, parent, lane, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = time.Since(t.origin)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsByName groups span durations (ns) by span name.
func durationsByName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur()))
	}
	return out
}

// selfTimeByLayer returns each layer's self time: its spans' durations
// minus the part their direct children cover.
func selfTimeByLayer(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - child[s.ID]
	}
	return out
}

// childCoverage is Σ direct children ÷ the parent's duration.
func childCoverage(spans []span, parent int) float64 {
	var covered time.Duration
	for _, s := range spans {
		if s.Parent == parent {
			covered += s.dur()
		}
	}
	if d := spans[parent].dur(); d > 0 {
		return float64(covered) / float64(d)
	}
	return 0
}

// packLanes assigns lanes from base upward to the spans selected by
// pick so that no two share a lane while they overlap; children of a
// picked span follow it. Used where spans come from timestamps rather
// than from one goroutine (serve jobs).
func packLanes(spans []span, base int, pick func(span) bool) {
	var roots []int
	for i, s := range spans {
		if pick(s) {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].Start < spans[roots[b]].Start })
	var laneEnd []time.Duration
	laneOf := map[int]int{}
	for _, i := range roots {
		lane := -1
		for l, end := range laneEnd {
			if end <= spans[i].Start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = spans[i].End
		spans[i].Lane = base + lane
		laneOf[spans[i].ID] = base + lane
	}
	for i, s := range spans {
		if l, ok := laneOf[s.Parent]; ok {
			spans[i].Lane = l
		}
	}
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), loadable in Perfetto or
// chrome://tracing.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job, "epoch": s.Epoch},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
