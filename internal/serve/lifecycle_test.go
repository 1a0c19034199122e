package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"trainbox/internal/train"
)

// oldSettle is the classification finish() made inline before settle
// existed, kept as the oracle: three request flags where settle takes
// one ranked intent. It returns the state and whether the job requeues.
func oldSettle(cancelRequested, suspendRequested, preempted, closed, banked bool, err error) (State, bool) {
	suspended := !closed && !cancelRequested && err != nil &&
		(errors.Is(err, train.ErrSuspended) ||
			(suspendRequested && banked && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)))
	switch {
	case suspended:
		return StateSuspended, preempted
	case err == nil:
		return StateDone, false
	case cancelRequested || errors.Is(err, train.ErrSuspended) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return StateCancelled, false
	default:
		return StateFailed, false
	}
}

// TestSettleMatchesParent enumerates every combination of the three old
// request flags, closed, banked and six run errors (192 rows), and
// requires settle plus the requeue-on-preempt step to classify each the
// way the old inline expression did.
func TestSettleMatchesParent(t *testing.T) {
	errs := []error{
		nil,
		train.ErrSuspended,
		fmt.Errorf("run parked after epoch 2: %w", train.ErrSuspended),
		context.Canceled,
		context.DeadlineExceeded,
		errors.New("divergence detected"),
	}
	compared, skipped := 0, 0
	for flags := 0; flags < 8; flags++ {
		cancelReq, suspendReq, preempted := flags&1 != 0, flags&2 != 0, flags&4 != 0
		var pending intent
		switch {
		case cancelReq:
			pending = intentCancel
		case suspendReq && preempted:
			pending = intentPreempt
		case suspendReq:
			pending = intentSuspend
		case preempted:
			// Preempted without suspendRequested: preemption always set
			// both flags and every dispatch or requeue cleared both, so
			// no job ever carried this combination.
			skipped += 2 * 2 * len(errs)
			continue
		}
		for _, closed := range []bool{false, true} {
			for _, banked := range []bool{false, true} {
				for _, err := range errs {
					want, wantRequeue := oldSettle(cancelReq, suspendReq, preempted, closed, banked, err)
					got := settle(pending, closed, banked, err)
					requeue := got == StateSuspended && pending == intentPreempt
					if got != want || requeue != wantRequeue {
						t.Errorf("flags c=%v s=%v p=%v closed=%v banked=%v err=%v: settle = %s requeue %v, want %s requeue %v",
							cancelReq, suspendReq, preempted, closed, banked, err, got, requeue, want, wantRequeue)
					}
					compared++
				}
			}
		}
	}
	if compared+skipped != 192 || compared != 168 {
		t.Fatalf("compared %d rows and skipped %d, want 168 + 24 = 192", compared, skipped)
	}
}

// fuzzRunner is an elastic fake that banks a checkpoint every 200µs
// "epoch", parks at the next one once suspension is requested, and
// otherwise runs until a release value (nil = done, else the error)
// or cancellation arrives.
type fuzzRunner struct{ release chan error }

func (r fuzzRunner) Run(ctx context.Context, id string, spec JobSpec, e Elastic) (Outcome, error) {
	epoch := 0
	if e.Restore != nil {
		epoch = e.Restore.Epoch + 1
	}
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for ; ; epoch++ {
		select {
		case err := <-r.release:
			return Outcome{Samples: spec.Items}, err
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		case <-tick.C:
		}
		e.Checkpoint(train.Checkpoint{Epoch: epoch, Seed: spec.Seed})
		if e.Suspender.Requested() {
			return Outcome{}, fmt.Errorf("%s parked after epoch %d: %w", id, epoch, train.ErrSuspended)
		}
	}
}

// checkLedgers asserts, under the server's lock, that the server ledger
// and every tenant ledger equal a recount of the job table, that every
// gauge reads its count and every terminal counter its terminal count,
// that nothing is lost between submission and admission, that the
// queue holds exactly the queued jobs, and that no terminal job keeps a
// checkpoint.
func checkLedgers(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	recount := map[string]map[State]int{"": {}}
	for name := range s.tenants {
		recount[name] = map[State]int{}
	}
	for _, j := range s.jobs {
		recount[""][j.state]++
		recount[j.spec.Tenant][j.state]++
		if j.state.Terminal() && j.checkpoint != nil {
			t.Errorf("%s is %s but still holds a checkpoint", j.id, j.state)
		}
	}
	check := func(name string, l *ledger) {
		jobs := 0
		for _, st := range []State{StateQueued, StateRunning, StateSuspended, StateDone, StateFailed, StateCancelled} {
			if got, want := l.count[st], recount[name][st]; got != want {
				t.Errorf("ledger %q: %s = %d, recount %d", name, st, got, want)
			}
			if g := l.gauge[st]; g != nil && int(g.Value()) != l.count[st] {
				t.Errorf("ledger %q: %s gauge = %v, count %d", name, st, g.Value(), l.count[st])
			}
			if c := l.entered[st]; c != nil && st.Terminal() && int(c.Value()) != l.count[st] {
				t.Errorf("ledger %q: %s counter = %d, count %d", name, st, c.Value(), l.count[st])
			}
			jobs += l.count[st]
		}
		if adm := l.admitted.Value(); adm != l.submitted.Value()-l.shed.Value() || int(adm) != jobs {
			t.Errorf("ledger %q: admitted %d, submitted %d, shed %d, jobs %d",
				name, adm, l.submitted.Value(), l.shed.Value(), jobs)
		}
	}
	check("", s.total)
	for name, tn := range s.tenants {
		check(name, tn.ledger)
	}
	if s.q.len() != s.total.count[StateQueued] {
		t.Errorf("queue holds %d jobs, ledger counts %d queued", s.q.len(), s.total.count[StateQueued])
	}
	if s.total.count[StateRunning] > s.cfg.maxRunning {
		t.Errorf("%d running, max %d", s.total.count[StateRunning], s.cfg.maxRunning)
	}
}

// FuzzServeLifecycle decodes bytes into lifecycle operations — submit,
// suspend, resume, cancel, release a run ok or failed, wait, close —
// against an elastic fake with two run slots (so outranking
// submissions preempt once both are taken), and checks the ledgers
// after every operation. Each byte is one operation: the low three bits pick it,
// the high five its argument (tenant, priority, which admitted job, or
// for op 7 close when a multiple of 4 and wait otherwise).
func FuzzServeLifecycle(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x10, 0x0a, 0x05, 0x0b, 0x0c, 0x06, 0x05})
	f.Add([]byte{0x00, 0x00, 0x00, 0x29, 0x31, 0x02, 0x03, 0x04, 0x07})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		// One slot per possible op, so a release sent before any run
		// starts waits for the next one instead of being dropped.
		r := fuzzRunner{release: make(chan error, 64)}
		s, err := NewServer(WithRunner(r), WithMaxRunning(2), WithQueueLimit(6), WithTenantQuota(4))
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, b := range ops {
			op, arg := b&7, int(b>>3)
			var job string
			if len(ids) > 0 {
				job = ids[arg%len(ids)]
			}
			switch {
			case op <= 1:
				spec := JobSpec{Tenant: string(rune('a' + arg%3))}
				if op == 1 {
					spec.Priority = arg % (MaxPriority + 1)
				}
				var inf Info
				if inf, err = s.Submit(spec); err == nil {
					ids = append(ids, inf.ID)
				}
			case op == 2 && job != "":
				err = s.Suspend(job)
			case op == 3 && job != "":
				err = s.Resume(job)
			case op == 4 && job != "":
				err = s.Cancel(job)
			case op == 5 || op == 6:
				var runErr error
				if op == 6 {
					runErr = errors.New("divergence detected")
				}
				select {
				case r.release <- runErr:
				default:
				}
			case op == 7 && arg%4 == 0:
				err = s.Close()
			case op == 7:
				time.Sleep(500 * time.Microsecond) // let runs reach an epoch boundary
			}
			var shed *ShedError
			if err != nil && !errors.As(err, &shed) && !errors.Is(err, ErrClosed) &&
				!errors.Is(err, ErrAlreadyFinished) && !errors.Is(err, ErrAlreadySuspended) &&
				!errors.Is(err, ErrNotSuspended) {
				t.Fatalf("op %d(%d): unexpected error %v", op, arg, err)
			}
			err = nil
			checkLedgers(t, s)
		}
		if err := s.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
		checkLedgers(t, s)
		if st := s.Stats(); st.QueueDepth+st.Running+st.Suspended != 0 {
			t.Errorf("live jobs after close: %+v", st)
		}
	})
}
