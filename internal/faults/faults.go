// Package faults is the reproduction's deterministic fault-injection
// layer. At TrainBox scale — 256 accelerators fed by racks of SSDs,
// FPGAs, and pooled preparation devices — slow reads, transient I/O
// errors, and dead devices are the steady state, not the exception, so
// every layer of the data path carries an optional Injector hook and a
// bounded-retry policy (see RetryPolicy) that together turn injected
// storms into survivable noise.
//
// Design rules:
//
//   - Deterministic. Every probabilistic injector draws from a hash of
//     (seed, op name, key, attempt): the same configuration replays the
//     same fault schedule on every run, which is what lets chaos tests
//     assert bit-identical results against a fault-free oracle. Retrying
//     callers increment Op.Attempt so each retry is a fresh draw.
//   - Zero cost when disabled. A nil Injector short-circuits before any
//     allocation or hash, and components keep their fault-free fast path
//     when neither an injector nor a retry policy is configured.
//   - Composable. Injectors are tiny values combined with Chain; the
//     Metered wrapper adds registry telemetry without touching the
//     injectors themselves.
//
// Error classification is part of the contract: injected errors are
// marked transient (see Transient and IsTransient) so retry layers know
// to re-attempt them, while ErrDeviceDead is permanent for the device —
// pools eject the device and re-dispatch the sample elsewhere
// (IsDeviceFault) instead of retrying in place.
package faults

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"trainbox/internal/metrics"
)

// Op identifies one attempted operation to an injector. Injectors hash
// it (with their own seed) to make deterministic per-attempt decisions.
type Op struct {
	// Name is the operation class, e.g. "storage.read" or "fpga.p2p.read".
	Name string
	// Key is the item identity, e.g. the object key being read.
	Key string
	// Attempt is the 0-based attempt number; retrying callers increment
	// it so every retry draws a fresh decision.
	Attempt int
}

// Fault is one injection decision. The zero value means "no fault".
type Fault struct {
	// Delay is added latency before the operation proceeds (or before
	// Err is returned) — a latency spike.
	Delay time.Duration
	// Stall blocks the operation until its context is cancelled or times
	// out — a simulated hang that only a per-attempt deadline rescues.
	Stall bool
	// Err, when non-nil, is returned instead of running the operation.
	Err error
}

// Injector decides, per operation attempt, whether to inject a fault.
// Implementations must be safe for concurrent use.
type Injector interface {
	Inject(op Op) Fault
}

// Apply runs the injector's decision for op against ctx: it sleeps the
// injected delay (honouring cancellation), blocks on an injected stall
// until ctx ends, and returns the injected error, if any. A nil
// injector costs one pointer comparison.
func Apply(ctx context.Context, inj Injector, op Op) error {
	if inj == nil {
		return nil
	}
	f := inj.Inject(op)
	if f.Stall {
		<-ctx.Done()
		return ctx.Err()
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	return f.Err
}

// unit maps (seed, salt, op) to a uniform draw in [0, 1). It is the
// deterministic randomness source behind every probabilistic injector
// and the retry jitter: identical inputs produce the identical draw on
// any platform.
func unit(seed int64, salt string, op Op) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d", seed, salt, op.Name, op.Key, op.Attempt)
	// FNV-1a diffuses trailing-byte changes (like the attempt index)
	// poorly into the high bits; a splitmix64 finalizer restores full
	// avalanche while staying deterministic across platforms.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
}

// errorRate injects err on a deterministic rate fraction of attempts.
type errorRate struct {
	seed int64
	rate float64
	err  error
}

// NewErrorRate returns an injector that fails a deterministic rate
// fraction of operation attempts with err. A nil err selects a
// transient ErrInjected — the usual "flaky device" configuration, which
// retry layers recover from. rate is clamped to [0, 1].
func NewErrorRate(seed int64, rate float64, err error) Injector {
	if err == nil {
		err = Transient(ErrInjected)
	}
	return &errorRate{seed: seed, rate: clamp01(rate), err: err}
}

func (e *errorRate) Inject(op Op) Fault {
	if unit(e.seed, "err", op) < e.rate {
		return Fault{Err: e.err}
	}
	return Fault{}
}

// latency injects a fixed delay on a rate fraction of attempts.
type latency struct {
	seed  int64
	rate  float64
	delay time.Duration
}

// NewLatency returns an injector that delays a deterministic rate
// fraction of operation attempts by delay — a latency-spike model (a
// slow SSD read, a congested pool link). The operation still succeeds.
func NewLatency(seed int64, rate float64, delay time.Duration) Injector {
	return &latency{seed: seed, rate: clamp01(rate), delay: delay}
}

func (l *latency) Inject(op Op) Fault {
	if unit(l.seed, "lat", op) < l.rate {
		return Fault{Delay: l.delay}
	}
	return Fault{}
}

// stall hangs a rate fraction of attempts until their context ends.
type stall struct {
	seed int64
	rate float64
}

// NewStall returns an injector that hangs a deterministic rate fraction
// of operation attempts until the operation's context is cancelled or
// its deadline passes — the "device stopped answering" failure that
// only per-attempt deadlines (RetryPolicy.AttemptTimeout or a stage
// timeout) turn into a retryable error instead of a wedged pipeline.
func NewStall(seed int64, rate float64) Injector {
	return &stall{seed: seed, rate: clamp01(rate)}
}

func (s *stall) Inject(op Op) Fault {
	if unit(s.seed, "stall", op) < s.rate {
		return Fault{Stall: true}
	}
	return Fault{}
}

// DeviceDeath is a device-lifecycle injector: it lets a budget of
// operations through, then fails every subsequent operation with the
// permanent ErrDeviceDead — the "pooled FPGA died mid-run" scenario.
type DeviceDeath struct {
	budget atomic.Int64
}

// NewDeviceDeath returns a device that serves aliveOps operations and
// then dies. aliveOps ≤ 0 means dead on arrival.
func NewDeviceDeath(aliveOps int64) *DeviceDeath {
	d := &DeviceDeath{}
	d.budget.Store(aliveOps)
	return d
}

// Inject implements Injector.
func (d *DeviceDeath) Inject(Op) Fault {
	if d.budget.Add(-1) < 0 {
		return Fault{Err: ErrDeviceDead}
	}
	return Fault{}
}

// chain composes injectors: delays and stalls accumulate, the first
// injected error wins.
type chain []Injector

// Chain composes injectors into one: per attempt it consults each in
// order, summing delays, OR-ing stalls, and returning the first
// non-nil error. A chain of zero injectors never injects.
func Chain(injs ...Injector) Injector {
	out := make(chain, 0, len(injs))
	for _, inj := range injs {
		if inj != nil {
			out = append(out, inj)
		}
	}
	return out
}

func (c chain) Inject(op Op) Fault {
	var f Fault
	for _, inj := range c {
		sub := inj.Inject(op)
		f.Delay += sub.Delay
		f.Stall = f.Stall || sub.Stall
		if f.Err == nil {
			f.Err = sub.Err
		}
	}
	return f
}

// metered wraps an injector with registry telemetry.
type metered struct {
	inj     Injector
	mErrs   *metrics.Counter
	mDelays *metrics.Counter
	mStalls *metrics.Counter
	mNs     *metrics.Counter
}

// Metered wraps inj so every injected fault is counted in the registry:
// "faults.injector.errors", "faults.injector.delays",
// "faults.injector.stalls", and cumulative injected latency under
// "faults.injector.delay_ns". A nil inj returns nil (still zero-cost).
func Metered(inj Injector, reg *metrics.Registry) Injector {
	if inj == nil {
		return nil
	}
	return &metered{
		inj:     inj,
		mErrs:   reg.Counter("faults.injector.errors"),
		mDelays: reg.Counter("faults.injector.delays"),
		mStalls: reg.Counter("faults.injector.stalls"),
		mNs:     reg.Counter("faults.injector.delay_ns"),
	}
}

func (m *metered) Inject(op Op) Fault {
	f := m.inj.Inject(op)
	if f.Err != nil {
		m.mErrs.Inc()
	}
	if f.Delay > 0 {
		m.mDelays.Inc()
		m.mNs.Add(int64(f.Delay))
	}
	if f.Stall {
		m.mStalls.Inc()
	}
	return f
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// ErrInjected is the base error of injected transient faults.
var ErrInjected = errors.New("faults: injected fault")

// ErrDeviceDead is the permanent "device stopped serving" error: the
// device is not coming back on a retry, so pools eject it and serve the
// sample elsewhere instead of retrying in place.
var ErrDeviceDead = errors.New("faults: device dead")

// transientError marks an error as transient through the unwrap chain.
type transientError struct{ err error }

func (t *transientError) Error() string   { return t.err.Error() }
func (t *transientError) Unwrap() error   { return t.err }
func (t *transientError) Transient() bool { return true }

// Transient wraps err so IsTransient reports true for it (and anything
// that wraps it). A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is worth retrying in place: it was
// marked Transient somewhere in its chain, or it is a deadline
// expiry (a per-attempt timeout firing — the stall rescue path).
// Cancellation is never transient: a cancelled parent context must
// stop the whole operation.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// IsDeviceFault reports whether err is attributable to the serving
// device rather than to the data: transient faults and device deaths
// count against the device's health and make the sample re-dispatchable
// elsewhere; data errors (a missing key, a corrupt payload) do not —
// they fail identically on every device.
func IsDeviceFault(err error) bool {
	return err != nil && (IsTransient(err) || errors.Is(err, ErrDeviceDead))
}
