package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trainbox/internal/invariant"
	"trainbox/internal/metrics"
)

func TestSingleStageOrdering(t *testing.T) {
	double := NewStage("double", 1, 2, func(_ context.Context, v int) (int, error) {
		return 2 * v, nil
	})
	p, err := New("test", double)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain[int](context.Background(), p, 0, 100)
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
	// A range need not start at 0 (a resumed epoch schedule does not);
	// an empty one runs nothing.
	out, err = Drain[int](context.Background(), p, 3, 7)
	if err != nil || len(out) != 4 || out[0] != 6 || out[3] != 12 {
		t.Fatalf("range [3, 7): out=%v err=%v, want [6 8 10 12]", out, err)
	}
	if out, err := Drain[int](context.Background(), p, 5, 5); err != nil || len(out) != 0 {
		t.Fatalf("empty range: out=%v err=%v", out, err)
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
	out, err := Drain[int](context.Background(), p, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d — parallel stage broke ordering", i, v, i*i)
		}
	}
}

// TestBackpressureBound: with a blocked last stage, the number of items
// the stage before it admits is bounded by its queue depth plus the
// items in hand — the pipeline cannot buffer unboundedly.
func TestBackpressureBound(t *testing.T) {
	invariant.NoLeak(t)
	var admitted atomic.Int64
	const depth = 3
	count := NewStage("count", 1, depth, func(_ context.Context, v int) (int, error) {
		admitted.Add(1)
		return v, nil
	})
	block := NewStage("block", 1, 0, func(ctx context.Context, v int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	p, err := New("test", count, block)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Drain[int](ctx, p, 0, 1000)
		done <- err
	}()
	// 1 held by the blocked stage + depth in the queue + 1 in count's
	// hand, blocked on the full queue. Drain reads the last stage's
	// queue itself, so no hand-off goroutine adds a slot past it.
	const bound = depth + 2
	deadline := time.Now().Add(5 * time.Second)
	for admitted.Load() < bound && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room to overshoot, were it possible
	if got := admitted.Load(); got != bound {
		t.Errorf("blocked pipeline admitted %d items, want %d", got, bound)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := admitted.Load(); got > bound {
		t.Errorf("after cancel: admitted %d items, want ≤ %d", got, bound)
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
	if _, err := Drain[int](context.Background(), p, 0, 10_000); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The error cancelled the source long before 10k items.
	if n := after.Load(); n > 100 {
		t.Errorf("stage processed %d items after the failure point", n)
	}
}

func TestParentContextCancellation(t *testing.T) {
	invariant.NoLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan struct{})
	var once sync.Once
	slow := NewStage("slow", 2, 2, func(ctx context.Context, v int) (int, error) {
		once.Do(func() { close(first) }) // at least one item flows
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
	go func() {
		<-first
		cancel()
	}()
	if out, err := Drain[int](ctx, p, 0, 1000); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("out = %d items, err = %v; want none and context.Canceled", len(out), err)
	}
}

// TestStopIsIdempotentAndLeakFree: a run whose context is already
// cancelled (twice) stops before delivering anything and leaks no
// goroutine, and cancelling a context after its run completed changes
// nothing the run returned.
func TestStopIsIdempotentAndLeakFree(t *testing.T) {
	invariant.NoLeak(t)
	id := NewStage("id", 4, 4, func(_ context.Context, v int) (int, error) { return v, nil })
	p, err := New("test", id)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancel()
	if out, err := Drain[int](ctx, p, 0, 100); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("pre-cancelled run: out = %v, err = %v", out, err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	out, err := Drain[int](ctx2, p, 0, 5)
	cancel2()
	if err != nil || len(out) != 5 {
		t.Fatalf("drain: %v (%d items)", err, len(out))
	}
}

func TestStageTypeMismatch(t *testing.T) {
	str := NewStage("str", 1, 0, func(_ context.Context, v string) (string, error) { return v, nil })
	p, err := New("test", str)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain[string](context.Background(), p, 0, 3); err == nil {
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

// TestStatsCounters: the registry is the per-stage ledger — items,
// busy time summed over workers, and a queue depth within the bound.
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
	reg := metrics.NewRegistry()
	if _, err := Drain[int](context.Background(), p.WithMetrics(reg), 0, 10); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pipeline.test.work.items"]; got != 10 {
		t.Errorf("items = %d, want 10", got)
	}
	if busy := time.Duration(snap.Histograms["pipeline.test.work.busy_ns"].Sum); busy < 10*busyFor {
		t.Errorf("busy = %v, want ≥ %v", busy, 10*busyFor)
	}
	if q, ok := snap.Gauges["pipeline.test.work.queue_depth"]; !ok || q < 0 || q > 3 {
		t.Errorf("queue depth = %v (present %v), want within [0, 3]", q, ok)
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
// many runs, each delivering its own range; its registry series
// accumulate across them.
func TestPipelineReusableAcrossRuns(t *testing.T) {
	id := NewStage("id", 2, 1, func(_ context.Context, v int) (int, error) { return v, nil })
	p, err := New("test", id)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	p.WithMetrics(reg)
	for i := 0; i < 3; i++ {
		out, err := Drain[int](context.Background(), p, 0, 4)
		if err != nil || len(out) != 4 {
			t.Fatalf("run %d: %v (%d items)", i, err, len(out))
		}
		if got := reg.Counter("pipeline.test.id.items").Value(); got != int64(4*(i+1)) {
			t.Fatalf("after run %d: items = %d, want %d", i, got, 4*(i+1))
		}
	}
}
