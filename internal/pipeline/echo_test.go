package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trainbox/internal/memframe"
)

// TestExpandStageFanOut: an expand stage emits every returned element
// as its own downstream item, in order, with a fresh dense sequence.
func TestExpandStageFanOut(t *testing.T) {
	counts := []int{0, 2, 1, 3}
	expand := NewExpandStage("expand", 2, func(_ context.Context, i int) ([]string, error) {
		n := counts[i]
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%d/%d", n, i)
		}
		return out, nil
	})
	double := NewStage("double", 4, 2, func(_ context.Context, s string) (string, error) {
		return s + "!", nil
	})
	p, err := New("fanout", expand, double)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain[string](context.Background(), p, 0, len(counts))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"2/0!", "2/1!", "1/0!", "3/0!", "3/1!", "3/2!"}
	if len(got) != len(want) {
		t.Fatalf("got %d items %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestExpandStageError: an error from the expand function fails the
// whole run, same as a plain stage.
func TestExpandStageError(t *testing.T) {
	boom := fmt.Errorf("boom")
	expand := NewExpandStage("expand", 0, func(_ context.Context, n int) ([]int, error) {
		if n == 3 {
			return nil, boom
		}
		return []int{n}, nil
	})
	p, err := New("fail", expand)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain[int](context.Background(), p, 0, 8); err == nil {
		t.Fatal("expand error did not fail the run")
	}
}

// token is a value whose fate a test can check: a stage consumes it, or
// the discard hook takes it — once.
type token struct{ fate atomic.Int32 } // 0 live, 1 consumed, 2 discarded

// TestDiscardAccountsEveryValue: cancelled from inside its last stage
// after k deliveries, for every k, a run hands every value a stage
// produced either to the next stage or to the discard hook — exactly
// once — and returns none of them.
func TestDiscardAccountsEveryValue(t *testing.T) {
	for k := 0; k < 20; k++ {
		var (
			mu       sync.Mutex
			produced []*token
		)
		mint := func() *token {
			tk := new(token)
			mu.Lock()
			produced = append(produced, tk)
			mu.Unlock()
			return tk
		}
		settle := func(tk *token, fate int32) {
			if !tk.fate.CompareAndSwap(0, fate) {
				t.Errorf("k=%d: token settled as %d after %d", k, fate, tk.fate.Load())
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		slow := NewStage("slow", 2, 2, func(ctx context.Context, n int) (*token, error) {
			select {
			case <-time.After(time.Duration(n%3) * time.Millisecond):
			case <-ctx.Done():
			}
			return mint(), nil
		})
		pass := NewStage("pass", 1, 2, func(_ context.Context, tk *token) (*token, error) {
			settle(tk, 1)
			return mint(), nil
		})
		delivered := 0 // the last stage is serial
		deliver := NewStage("deliver", 1, 2, func(_ context.Context, tk *token) (*token, error) {
			settle(tk, 1)
			if delivered++; delivered > k {
				cancel()
			}
			return mint(), nil
		})
		p, err := New("acct", slow, pass, deliver)
		if err != nil {
			t.Fatal(err)
		}
		p.WithDiscard(func(v any) {
			if tk, ok := v.(*token); ok {
				settle(tk, 2)
			}
		})
		out, err := Drain[*token](ctx, p, 0, 50)
		cancel()
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("k=%d: %d outputs, err = %v; want none and context.Canceled", k, len(out), err)
		}
		for i, tk := range produced {
			if tk.fate.Load() == 0 {
				t.Fatalf("k=%d: value %d of %d neither consumed nor discarded", k, i, len(produced))
			}
		}
	}
}

// refBatch is the echo payload pattern for pooled buffers: one buffer
// shared by all replicas, recycled exactly once when the last replica
// is either consumed or discarded.
type refBatch struct {
	buf     []float32
	pending *atomic.Int32
}

func (b refBatch) done(pool *memframe.Pool[float32]) {
	if b.pending.Add(-1) == 0 {
		pool.Put(b.buf)
	}
}

// TestChaosEchoCancelNoPooledLeak: cancel the run mid-epoch while
// replayed batches are in flight, at every possible consumption point,
// and assert the memframe pool balance sheet closes
// (every Get matched by a Put — no pooled buffer leaks).
func TestChaosEchoCancelNoPooledLeak(t *testing.T) {
	const factor = 3
	for trial := 0; trial < 40; trial++ {
		pool := new(memframe.Pool[float32])
		prep := NewStage("prepare", 1, 2, func(_ context.Context, n int) ([]float32, error) {
			buf := pool.Get(256)
			for i := range buf {
				buf[i] = float32(n)
			}
			return buf, nil
		})
		echo := NewExpandStage("echo", 1, func(_ context.Context, buf []float32) ([]refBatch, error) {
			var pending atomic.Int32
			pending.Store(factor)
			out := make([]refBatch, factor)
			for i := range out {
				out[i] = refBatch{buf: buf, pending: &pending}
			}
			return out, nil
		})
		// Step a trial-dependent number of replicas, then cancel with
		// replicas of the current batch still undelivered.
		ctx, cancel := context.WithCancel(context.Background())
		var stepped atomic.Int64
		step := NewStage("step", 1, 1, func(_ context.Context, b refBatch) (int, error) {
			if stepped.Add(1) > int64(trial) {
				cancel()
			}
			v := int(b.buf[0]) // read before releasing the replica
			b.done(pool)
			return v, nil
		})
		p, err := New("chaos-echo", prep, echo, step)
		if err != nil {
			t.Fatal(err)
		}
		p.WithDiscard(func(v any) {
			switch b := v.(type) {
			case refBatch:
				b.done(pool)
			case []float32:
				pool.Put(b) // dropped before the echo stage split it
			}
		})
		if _, err := Drain[int](ctx, p, 0, 64); !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}
		cancel()
		st := pool.Stats()
		if st.Gets != st.Puts {
			t.Fatalf("trial %d: pooled buffers leaked: Gets=%d Puts=%d (News=%d Drops=%d, stepped=%d)",
				trial, st.Gets, st.Puts, st.News, st.Drops, stepped.Load())
		}
	}
}

// TestDiscardNotCalledWhenRunCompletes: a clean run never discards.
func TestDiscardNotCalledWhenRunCompletes(t *testing.T) {
	var discarded atomic.Int64
	st := NewStage("id", 2, 2, func(_ context.Context, n int) (int, error) { return n, nil })
	p, err := New("clean", st)
	if err != nil {
		t.Fatal(err)
	}
	p.WithDiscard(func(any) { discarded.Add(1) })
	got, err := Drain[int](context.Background(), p, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("got %d items, want 32", len(got))
	}
	if discarded.Load() != 0 {
		t.Fatalf("clean run discarded %d values", discarded.Load())
	}
}
