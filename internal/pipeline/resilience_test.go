package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"trainbox/internal/faults"
	"trainbox/internal/invariant"
)

// TestStageNonRetryableFailsFast: a stage never re-runs a failed item —
// retries belong to the layers that own the fault (storage, the fpga
// cluster, the PS tier) — so even a transient-classified error fails
// the run after exactly one invocation, with the item's own error.
func TestStageNonRetryableFailsFast(t *testing.T) {
	errBlip := faults.Transient(errors.New("blip"))
	var calls atomic.Int64
	st := NewStage("strict", 1, 0,
		func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			return 0, errBlip
		})
	pl, err := New("p", st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain[int](context.Background(), pl, 0, 4); !errors.Is(err, errBlip) {
		t.Fatalf("err = %v, want %v", err, errBlip)
	}
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1 (stages do not retry)", calls.Load())
	}
}

// TestFirstErrorCancelsConcurrentInFlight: with many items in flight on
// a parallel stage, one item failing must cancel the shared context so
// every blocked sibling unwinds, and the run must report the original
// error — not the cancellations it caused — and leak no goroutines.
func TestFirstErrorCancelsConcurrentInFlight(t *testing.T) {
	invariant.NoLeak(t)
	errBoom := errors.New("boom")
	st := NewStage("mixed", 4, 2,
		func(ctx context.Context, i int) (int, error) {
			if i == 3 {
				time.Sleep(2 * time.Millisecond) // let siblings block first
				return 0, errBoom
			}
			<-ctx.Done() // in-flight items wait on cancellation
			return 0, ctx.Err()
		})
	pl, err := New("p", st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain[int](context.Background(), pl, 0, 32); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
}

// TestStopWhileBlockedOnFullQueue: cancelling must unwind a run whose
// stages are wedged on backpressure — the last stage blocked, the
// bounded queue before it full — without deadlocking, and release every
// goroutine.
func TestStopWhileBlockedOnFullQueue(t *testing.T) {
	invariant.NoLeak(t)
	var produced atomic.Int64
	fast := NewStage("fast", 1, 1,
		func(_ context.Context, i int) (int, error) {
			produced.Add(1)
			return i, nil
		})
	wedge := NewStage("wedge", 1, 0,
		func(ctx context.Context, i int) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		})
	pl, err := New("p", fast, wedge)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Drain[int](ctx, pl, 0, 1000)
		done <- err
	}()
	// Wait until fast has filled its queue and blocked: with depth 1 and
	// a wedged consumer at most a handful of items complete.
	deadline := time.Now().Add(5 * time.Second)
	for produced.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled run err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel deadlocked on a backpressured run")
	}
	if p := produced.Load(); p >= 1000 {
		t.Errorf("backpressure absent: %d items ran with no consumer", p)
	}
}
