package faults

import (
	"context"
	"time"
)

// RetryPolicy is a bounded retry loop with exponential backoff,
// deterministic jitter, and per-attempt deadlines — the resilience
// counterpart to this package's injectors. The zero value is disabled
// (one attempt, no timeout).
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first call;
	// values < 1 behave as 1 (no retries).
	MaxAttempts int
	// BaseBackoff is the wait before the second attempt; it doubles on
	// every further retry.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means uncapped.
	MaxBackoff time.Duration
	// Jitter is the fraction of each backoff randomized around its
	// nominal value, in [0, 1]: the actual wait is uniform in
	// [b·(1−Jitter/2), b·(1+Jitter/2)]. The draw is deterministic in
	// (Seed, op name, key, attempt).
	Jitter float64
	// AttemptTimeout bounds each attempt with its own deadline; 0 means
	// none. This is what rescues stalled operations: the attempt fails
	// with a transient deadline error and the loop retries.
	AttemptTimeout time.Duration
	// Seed drives the jitter draw.
	Seed int64
	// Classify reports whether an error is retryable; nil selects
	// IsTransient.
	Classify func(error) bool
}

// Enabled reports whether the policy can actually retry (more than one
// attempt). Components use it to keep their fault-free fast path when
// the policy is the zero value.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// RetryStats is one Do call's accounting, for the caller's metrics.
type RetryStats struct {
	// Attempts is how many times fn ran (≥ 1 unless ctx was already
	// cancelled).
	Attempts int
	// Backoff is the total time slept between attempts.
	Backoff time.Duration
}

// Do runs fn under the policy: up to MaxAttempts calls, each optionally
// bounded by AttemptTimeout, with exponentially backed-off, jittered
// waits between retryable failures. name and key identify the
// operation for the deterministic jitter draw and should match the Op
// the caller hands its injector; fn receives the attempt index so it
// can do the same. Non-retryable errors and context cancellation stop
// the loop immediately; the returned error is fn's last error (never
// the bare backoff-interrupting context error, so callers keep the
// operation's own failure).
func (p RetryPolicy) Do(ctx context.Context, name, key string, fn func(ctx context.Context, attempt int) error) (RetryStats, error) {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	classify := p.Classify
	if classify == nil {
		classify = IsTransient
	}
	var st RetryStats
	var err error
	for a := 0; a < attempts; a++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return st, err
		}
		st.Attempts++
		actx, cancel := ctx, context.CancelFunc(nil)
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err = fn(actx, a)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return st, nil
		}
		if a == attempts-1 || !classify(err) {
			return st, err
		}
		b := p.backoff(a, name, key)
		if b > 0 {
			// Account only time actually slept: an interrupted wait must
			// not book the full nominal backoff (with hour-scale caps the
			// overstatement would dwarf the real run).
			start := time.Now()
			t := time.NewTimer(b)
			select {
			case <-t.C:
				st.Backoff += b
			case <-ctx.Done():
				t.Stop()
				st.Backoff += time.Since(start)
				return st, err
			}
		}
	}
	return st, err
}

// backoff returns the jittered wait after the given 0-based failed
// attempt.
func (p RetryPolicy) backoff(attempt int, name, key string) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	shift := attempt
	if shift > 32 {
		shift = 32 // past any real cap; avoids Duration overflow
	}
	b := p.BaseBackoff << shift
	if b <= 0 || (p.MaxBackoff > 0 && b > p.MaxBackoff) {
		b = p.MaxBackoff
		if b <= 0 {
			b = p.BaseBackoff
		}
	}
	if p.Jitter > 0 {
		j := clamp01(p.Jitter)
		u := unit(p.Seed, "jitter", Op{Name: name, Key: key, Attempt: attempt})
		b = time.Duration(float64(b) * (1 - j/2 + j*u))
	}
	return b
}
