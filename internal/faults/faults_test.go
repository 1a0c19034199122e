package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"trainbox/internal/metrics"
)

func TestErrorRateIsDeterministicAndCalibrated(t *testing.T) {
	a := NewErrorRate(42, 0.2, nil)
	b := NewErrorRate(42, 0.2, nil)
	injected := 0
	const n = 20000
	for i := 0; i < n; i++ {
		op := Op{Name: "storage.read", Key: fmt.Sprintf("k-%d", i)}
		fa, fb := a.Inject(op), b.Inject(op)
		if (fa.Err == nil) != (fb.Err == nil) {
			t.Fatalf("two injectors with the same seed disagree on %v", op)
		}
		if fa.Err != nil {
			injected++
		}
	}
	got := float64(injected) / n
	if got < 0.17 || got > 0.23 {
		t.Errorf("injected fraction = %.3f, want ≈0.2", got)
	}
	// A different attempt index is a fresh draw: over many keys the
	// attempt-1 outcome must not simply copy attempt 0.
	same := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k-%d", i)
		f0 := a.Inject(Op{Name: "r", Key: key, Attempt: 0})
		f1 := a.Inject(Op{Name: "r", Key: key, Attempt: 1})
		if (f0.Err == nil) == (f1.Err == nil) {
			same++
		}
	}
	if same == 1000 {
		t.Error("attempt index does not vary the draw — retries would be futile")
	}
}

func TestErrorRateBounds(t *testing.T) {
	always := NewErrorRate(1, 2.0, nil) // clamped to 1
	never := NewErrorRate(1, -1, nil)   // clamped to 0
	for i := 0; i < 100; i++ {
		op := Op{Name: "x", Key: fmt.Sprintf("%d", i)}
		if always.Inject(op).Err == nil {
			t.Fatal("rate 1 skipped an injection")
		}
		if never.Inject(op).Err != nil {
			t.Fatal("rate 0 injected")
		}
	}
}

func TestInjectedErrorsAreTransient(t *testing.T) {
	f := NewErrorRate(7, 1, nil).Inject(Op{Name: "r", Key: "k"})
	if !IsTransient(f.Err) {
		t.Errorf("default injected error not transient: %v", f.Err)
	}
	if !errors.Is(f.Err, ErrInjected) {
		t.Errorf("default injected error does not wrap ErrInjected: %v", f.Err)
	}
	wrapped := fmt.Errorf("storage: read %q: %w", "k", f.Err)
	if !IsTransient(wrapped) {
		t.Error("transience lost through fmt.Errorf wrapping")
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		err         error
		transient   bool
		deviceFault bool
	}{
		{nil, false, false},
		{errors.New("plain"), false, false},
		{Transient(errors.New("flaky")), true, true},
		{ErrDeviceDead, false, true},
		{fmt.Errorf("fpga: %w", ErrDeviceDead), false, true},
		{context.DeadlineExceeded, true, true},
		{context.Canceled, false, false},
		{fmt.Errorf("op: %w", context.Canceled), false, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.transient {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.transient)
		}
		if got := IsDeviceFault(c.err); got != c.deviceFault {
			t.Errorf("IsDeviceFault(%v) = %v, want %v", c.err, got, c.deviceFault)
		}
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) should be nil")
	}
}

func TestLatencyInjectsDelay(t *testing.T) {
	inj := NewLatency(3, 1, 5*time.Millisecond)
	f := inj.Inject(Op{Name: "r", Key: "k"})
	if f.Delay != 5*time.Millisecond || f.Err != nil {
		t.Fatalf("latency fault = %+v", f)
	}
	start := time.Now()
	if err := Apply(context.Background(), inj, Op{Name: "r", Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("Apply slept %v, want ≥5ms", elapsed)
	}
}

func TestApplyHonoursCancellationDuringDelay(t *testing.T) {
	inj := NewLatency(3, 1, time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Apply(ctx, inj, Op{Name: "r", Key: "k"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("Apply did not unblock at the deadline")
	}
}

func TestStallBlocksUntilDeadline(t *testing.T) {
	inj := NewStall(9, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := Apply(ctx, inj, Op{Name: "r", Key: "k"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stalled op: err = %v, want DeadlineExceeded", err)
	}
	// The deadline error is transient: a retry layer re-attempts it.
	if !IsTransient(err) {
		t.Error("stall rescue error must be transient")
	}
}

func TestApplyNilInjectorIsFree(t *testing.T) {
	if err := Apply(context.Background(), nil, Op{}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceDeathLifecycle(t *testing.T) {
	d := NewDeviceDeath(3)
	op := Op{Name: "fpga.p2p.read", Key: "k"}
	for i := 0; i < 3; i++ {
		if f := d.Inject(op); f.Err != nil {
			t.Fatalf("op %d failed before budget exhausted: %v", i, f.Err)
		}
	}
	for i := 0; i < 5; i++ {
		if f := d.Inject(op); !errors.Is(f.Err, ErrDeviceDead) {
			t.Fatalf("dead device served op %d: %v", i, f.Err)
		}
	}
}

func TestChainComposition(t *testing.T) {
	boom := errors.New("boom")
	c := Chain(
		NewLatency(1, 1, 2*time.Millisecond),
		nil, // nils are dropped
		NewLatency(2, 1, 3*time.Millisecond),
		NewErrorRate(3, 1, Transient(boom)),
		NewErrorRate(4, 1, errors.New("second error, never seen")),
	)
	f := c.Inject(Op{Name: "r", Key: "k"})
	if f.Delay != 5*time.Millisecond {
		t.Errorf("chained delay = %v, want 5ms", f.Delay)
	}
	if !errors.Is(f.Err, boom) {
		t.Errorf("chain err = %v, want first error", f.Err)
	}
	if Chain().Inject(Op{}) != (Fault{}) {
		t.Error("empty chain injected")
	}
}

func TestMeteredCountsInjections(t *testing.T) {
	reg := metrics.NewRegistry()
	inj := Metered(Chain(
		NewErrorRate(5, 1, nil),
		NewLatency(6, 1, time.Millisecond),
	), reg)
	for i := 0; i < 4; i++ {
		inj.Inject(Op{Name: "r", Key: fmt.Sprintf("%d", i)})
	}
	snap := reg.Snapshot()
	if got := snap.Counters["faults.injector.errors"]; got != 4 {
		t.Errorf("injected_errors = %d, want 4", got)
	}
	if got := snap.Counters["faults.injector.delays"]; got != 4 {
		t.Errorf("injected_delays = %d, want 4", got)
	}
	if got := snap.Counters["faults.injector.delay_ns"]; got != 4*int64(time.Millisecond) {
		t.Errorf("injected_delay_ns = %d", got)
	}
	if Metered(nil, reg) != nil {
		t.Error("Metered(nil) should stay nil for the zero-cost path")
	}
}
