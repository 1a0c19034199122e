package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"trainbox/internal/invariant"
)

func TestSingleStageOrdering(t *testing.T) {
	double := NewStage("double", 1, 2, func(_ context.Context, v int) (int, error) {
		return 2 * v, nil
	})
	p, err := New("test", double)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain[int](p.Run(context.Background(), IndexSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("got %d items, want 100", len(out))
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

// TestParallelStagePreservesOrder is the determinism property: a stage
// with many workers and adversarial per-item delays must still deliver
// outputs in source order.
func TestParallelStagePreservesOrder(t *testing.T) {
	jitter := NewStage("jitter", 8, 4, func(_ context.Context, v int) (int, error) {
		// Earlier items sleep longer, maximizing reorder pressure.
		time.Sleep(time.Duration((v%7)*97) * time.Microsecond)
		return v, nil
	})
	square := NewStage("square", 4, 2, func(_ context.Context, v int) (int, error) {
		return v * v, nil
	})
	p, err := New("test", jitter, square)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain[int](p.Run(context.Background(), IndexSource(200)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d — parallel stage broke ordering", i, v, i*i)
		}
	}
}

// TestBackpressureBound: with a stalled consumer, the number of items a
// stage admits is bounded by its queue depth plus its in-flight workers
// — the pipeline cannot buffer unboundedly.
func TestBackpressureBound(t *testing.T) {
	var admitted atomic.Int64
	const depth = 3
	st := NewStage("count", 1, depth, func(_ context.Context, v int) (int, error) {
		admitted.Add(1)
		return v, nil
	})
	p, err := New("test", st)
	if err != nil {
		t.Fatal(err)
	}
	run := p.Run(context.Background(), IndexSource(1000))
	// Never read run.Out(); let the pipeline push to its bound.
	time.Sleep(100 * time.Millisecond)
	got := admitted.Load()
	// 1 in the worker's hand + depth in the queue + 1 blocked on the
	// stripper's unbuffered hand-off.
	if max := int64(depth + 2); got > max {
		t.Errorf("stalled pipeline admitted %d items, want ≤ %d", got, max)
	}
	run.Stop()
	if got := admitted.Load(); got > depth+2 {
		t.Errorf("after stop: admitted %d items", got)
	}
}

func TestFirstErrorCancelsRun(t *testing.T) {
	invariant.NoLeak(t)
	boom := errors.New("boom")
	var after atomic.Int64
	fail := NewStage("fail", 2, 1, func(_ context.Context, v int) (int, error) {
		if v == 10 {
			return 0, boom
		}
		if v > 10 {
			after.Add(1)
		}
		return v, nil
	})
	slow := NewStage("slow", 1, 1, func(_ context.Context, v int) (int, error) {
		time.Sleep(time.Millisecond)
		return v, nil
	})
	p, err := New("test", fail, slow)
	if err != nil {
		t.Fatal(err)
	}
	run := p.Run(context.Background(), IndexSource(10_000))
	if _, err := Drain[int](run); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The error cancelled the source long before 10k items.
	if n := after.Load(); n > 100 {
		t.Errorf("stage processed %d items after the failure point", n)
	}
}

func TestSourceErrorFailsRun(t *testing.T) {
	boom := errors.New("source boom")
	src := func(ctx context.Context, emit func(v any) error) error {
		if err := emit(1); err != nil {
			return err
		}
		return boom
	}
	id := NewStage("id", 1, 1, func(_ context.Context, v int) (int, error) { return v, nil })
	p, err := New("test", id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain[int](p.Run(context.Background(), src)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestParentContextCancellation(t *testing.T) {
	invariant.NoLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	slow := NewStage("slow", 2, 2, func(ctx context.Context, v int) (int, error) {
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		return v, nil
	})
	p, err := New("test", slow)
	if err != nil {
		t.Fatal(err)
	}
	run := p.Run(ctx, IndexSource(1000))
	<-run.Out() // at least one item flows
	cancel()
	run.Stop()
	if err := run.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStopIsIdempotentAndLeakFree(t *testing.T) {
	invariant.NoLeak(t)
	id := NewStage("id", 4, 4, func(_ context.Context, v int) (int, error) { return v, nil })
	p, err := New("test", id)
	if err != nil {
		t.Fatal(err)
	}
	run := p.Run(context.Background(), IndexSource(100))
	run.Stop()
	run.Stop()

	// Stop after normal completion is also fine.
	run2 := p.Run(context.Background(), IndexSource(5))
	if out, err := Drain[int](run2); err != nil || len(out) != 5 {
		t.Fatalf("drain: %v (%d items)", err, len(out))
	}
	run2.Stop()
	if err := run2.Err(); err != nil {
		t.Fatalf("completed run reports error after Stop: %v", err)
	}
}

func TestStageTypeMismatch(t *testing.T) {
	str := NewStage("str", 1, 0, func(_ context.Context, v string) (string, error) { return v, nil })
	p, err := New("test", str)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain[string](p.Run(context.Background(), IndexSource(3))); err == nil {
		t.Fatal("int fed to a string stage was accepted")
	}
}

func TestNewValidation(t *testing.T) {
	id := NewStage("id", 1, 0, func(_ context.Context, v int) (int, error) { return v, nil })
	if _, err := New("empty"); err == nil {
		t.Error("pipeline with no stages accepted")
	}
	if _, err := New("nil", id, nil); err == nil {
		t.Error("nil stage accepted")
	}
	unnamed := NewStage("", 1, 0, func(_ context.Context, v int) (int, error) { return v, nil })
	if _, err := New("unnamed", unnamed); err == nil {
		t.Error("unnamed stage accepted")
	}
	if _, err := New("dup", id, id); err == nil {
		t.Error("duplicate stage name accepted")
	}
}

func TestStatsCounters(t *testing.T) {
	busyFor := 2 * time.Millisecond
	work := NewStage("work", 2, 3, func(_ context.Context, v int) (int, error) {
		time.Sleep(busyFor)
		return v, nil
	})
	p, err := New("test", work)
	if err != nil {
		t.Fatal(err)
	}
	run := p.Run(context.Background(), IndexSource(10))
	if _, err := Drain[int](run); err != nil {
		t.Fatal(err)
	}
	stats := run.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats for %d stages, want 1", len(stats))
	}
	s := stats[0]
	if s.Name != "work" || s.Parallelism != 2 || s.QueueCap != 3 {
		t.Errorf("stats identity wrong: %+v", s)
	}
	if s.ItemsIn != 10 || s.ItemsOut != 10 {
		t.Errorf("items in/out = %d/%d, want 10/10", s.ItemsIn, s.ItemsOut)
	}
	if s.Busy < 10*busyFor {
		t.Errorf("busy = %v, want ≥ %v", s.Busy, 10*busyFor)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestStatsSetAccumulates(t *testing.T) {
	var set StatsSet
	set.Add([]StageStats{{Name: "a", ItemsIn: 3, ItemsOut: 3, Busy: time.Second}})
	set.Add([]StageStats{{Name: "a", ItemsIn: 2, ItemsOut: 1, Busy: time.Second}, {Name: "b", ItemsIn: 7}})
	snap := set.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].ItemsIn != 5 || snap[0].ItemsOut != 4 || snap[0].Busy != 2*time.Second {
		t.Errorf("accumulated a = %+v", snap[0])
	}
	if snap[1].ItemsIn != 7 {
		t.Errorf("accumulated b = %+v", snap[1])
	}
}

func TestRangeSource(t *testing.T) {
	ident := NewStage("ident", 1, 1, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	p, err := New("test", ident)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain[int](p.Run(context.Background(), RangeSource(3, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || out[0] != 3 || out[3] != 6 {
		t.Fatalf("out = %v, want [3 4 5 6]", out)
	}
	// Empty and inverted ranges emit nothing.
	out, err = Drain[int](p.Run(context.Background(), RangeSource(5, 5)))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty range: out=%v err=%v", out, err)
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(context.Background(), 100, func(_ context.Context, i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Errorf("sum = %d, want 4950", sum.Load())
	}

	boom := errors.New("boom")
	var cancelled atomic.Int64
	err := ForEach(context.Background(), 50, func(ctx context.Context, i int) error {
		if i == 0 {
			return boom
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return nil
		case <-time.After(2 * time.Second):
			return fmt.Errorf("worker %d was not cancelled", i)
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if cancelled.Load() != 49 {
		t.Errorf("cancelled workers = %d, want 49", cancelled.Load())
	}

	if err := ForEach(context.Background(), 0, func(context.Context, int) error { return nil }); err != nil {
		t.Errorf("n=0: err = %v", err)
	}
}

// TestPoolReuse: Put-then-Get cycles must recycle buffers. The check is
// statistical (sync.Pool may drop items, and does so deliberately under
// the race detector), so assert substantial — not total — reuse.
func TestPoolReuse(t *testing.T) {
	pool := NewPool(func() []byte { return make([]byte, 1024) })
	buf := pool.Get()
	if len(buf) != 1024 {
		t.Fatalf("fresh buffer len = %d", len(buf))
	}
	const cycles = 1000
	for i := 0; i < cycles; i++ {
		b := pool.Get()
		b[0] = byte(i)
		pool.Put(b)
	}
	s := pool.Stats()
	if s.Gets != cycles+1 || s.Puts != cycles {
		t.Fatalf("stats = %+v", s)
	}
	if s.News >= cycles {
		t.Errorf("pool allocated %d times over %d cycles — no reuse", s.News, cycles)
	}
}

// TestPipelineReusableAcrossRuns: one Pipeline description can back
// many runs with independent counters.
func TestPipelineReusableAcrossRuns(t *testing.T) {
	id := NewStage("id", 2, 1, func(_ context.Context, v int) (int, error) { return v, nil })
	p, err := New("test", id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		run := p.Run(context.Background(), IndexSource(4))
		out, err := Drain[int](run)
		if err != nil || len(out) != 4 {
			t.Fatalf("run %d: %v (%d items)", i, err, len(out))
		}
		if s := run.Stats()[0]; s.ItemsIn != 4 {
			t.Fatalf("run %d saw %d items — counters shared across runs", i, s.ItemsIn)
		}
	}
}
