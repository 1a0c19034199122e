package pipeline

import (
	"context"
	"testing"
	"time"

	"trainbox/internal/metrics"
)

// TestRunWithMetrics: an attached registry must receive per-stage item
// counts, busy-time histograms, and queue-depth gauges; repeated runs
// accumulate into the same series.
func TestRunWithMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	double := NewStage("double", 2, 2, func(_ context.Context, v int) (int, error) {
		time.Sleep(time.Microsecond)
		return 2 * v, nil
	})
	pl, err := New("m", double)
	if err != nil {
		t.Fatal(err)
	}
	pl.WithMetrics(reg)

	for run := 0; run < 2; run++ {
		out, err := Drain[int](context.Background(), pl, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 5 {
			t.Fatalf("run %d: %d outputs", run, len(out))
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["pipeline.m.double.items"]; got != 10 {
		t.Errorf("items counter = %d, want 10 across two runs", got)
	}
	busy := snap.Histograms["pipeline.m.double.busy_ns"]
	if busy.Count != 10 || busy.P50 <= 0 {
		t.Errorf("busy histogram = %+v, want 10 positive observations", busy)
	}
	if _, ok := snap.Gauges["pipeline.m.double.queue_depth"]; !ok {
		t.Error("queue_depth gauge missing")
	}
}

// TestRunWithoutMetrics: a detached pipeline must register nothing.
func TestRunWithoutMetrics(t *testing.T) {
	id := NewStage("id", 1, 0, func(_ context.Context, v int) (int, error) { return v, nil })
	pl, err := New("bare", id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain[int](context.Background(), pl, 0, 3); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert against a registry — the point is the run above
	// cannot panic with nil metric handles and pays no registry cost.
}
