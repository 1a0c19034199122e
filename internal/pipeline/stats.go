package pipeline

import (
	"fmt"
	"sync"
	"time"
)

// StageStats is one stage's counters for one run (or, via StatsSet, an
// accumulation across runs). Busy is the total wall time spent inside
// the stage function summed over workers; QueueLen/QueueCap are the
// output queue's occupancy at sampling time, the direct observable of
// the paper's stage-balance argument (a persistently full queue means
// the downstream stage is the bottleneck; a persistently empty one,
// the upstream).
type StageStats struct {
	Name        string
	Parallelism int
	ItemsIn     int64
	ItemsOut    int64
	Busy        time.Duration
	QueueLen    int
	QueueCap    int
}

// String renders the stats for reports and profiling tools.
func (s StageStats) String() string {
	return fmt.Sprintf("%s: in=%d out=%d busy=%v queue=%d/%d ×%d",
		s.Name, s.ItemsIn, s.ItemsOut, s.Busy.Round(time.Microsecond),
		s.QueueLen, s.QueueCap, s.Parallelism)
}

// Stats samples per-stage counters for this run, in stage order. Safe
// to call while the run is in flight.
func (r *Run) Stats() []StageStats {
	out := make([]StageStats, len(r.stages))
	for i, sr := range r.stages {
		out[i] = StageStats{
			Name:        sr.spec.name,
			Parallelism: sr.spec.par,
			ItemsIn:     sr.itemsIn.Load(),
			ItemsOut:    sr.itemsOut.Load(),
			Busy:        time.Duration(sr.busy.Load()),
			QueueLen:    len(sr.out),
			QueueCap:    cap(sr.out),
		}
	}
	return out
}

// StatsSet accumulates StageStats across runs, keyed by stage name —
// the hook a long-lived component (an executor serving many batches)
// uses to expose cumulative pipeline counters. Safe for concurrent use.
type StatsSet struct {
	mu     sync.Mutex
	order  []string
	byName map[string]*StageStats
}

// Add merges one run's stats into the set.
func (s *StatsSet) Add(stats []StageStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byName == nil {
		s.byName = make(map[string]*StageStats)
	}
	for _, st := range stats {
		acc, ok := s.byName[st.Name]
		if !ok {
			cp := st
			s.byName[st.Name] = &cp
			s.order = append(s.order, st.Name)
			continue
		}
		acc.ItemsIn += st.ItemsIn
		acc.ItemsOut += st.ItemsOut
		acc.Busy += st.Busy
		acc.QueueLen = st.QueueLen
		acc.QueueCap = st.QueueCap
		acc.Parallelism = st.Parallelism
	}
}

// Snapshot returns the accumulated stats in first-seen stage order.
func (s *StatsSet) Snapshot() []StageStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StageStats, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, *s.byName[name])
	}
	return out
}
