package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"trainbox/internal/train"
)

// elasticGate is the suspendable stand-in for real training: it blocks
// like gateRunner, but polls its Suspender and parks — banking a fake
// checkpoint through the sink — the way a train.Run epoch boundary
// would. Each dispatch records the epoch it restored from (-1 = fresh).
type elasticGate struct {
	mu       sync.Mutex
	restores map[string][]int // id → restore epoch per dispatch
	started  chan string
	release  chan error
}

func newElasticGate() *elasticGate {
	return &elasticGate{
		restores: map[string][]int{},
		started:  make(chan string, 128),
		release:  make(chan error, 128),
	}
}

func (g *elasticGate) Run(ctx context.Context, id string, spec JobSpec, e Elastic) (Outcome, error) {
	epoch := 0
	restored := -1
	if e.Restore != nil {
		restored = e.Restore.Epoch
		epoch = e.Restore.Epoch + 1
	}
	g.mu.Lock()
	g.restores[id] = append(g.restores[id], restored)
	g.mu.Unlock()
	g.started <- id
	for {
		select {
		case err := <-g.release:
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{FinalLoss: 0.25, Samples: spec.Items * (spec.Epochs - epoch)}, nil
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		case <-time.After(time.Millisecond):
			if e.Suspender != nil && e.Suspender.Requested() {
				if e.Checkpoint != nil {
					e.Checkpoint(train.Checkpoint{Epoch: epoch, Seed: spec.Seed})
				}
				return Outcome{}, fmt.Errorf("elasticGate: parked after epoch %d: %w", epoch, train.ErrSuspended)
			}
		}
	}
}

func (g *elasticGate) waitStarted(t *testing.T) string {
	t.Helper()
	select {
	case id := <-g.started:
		return id
	case <-time.After(time.Until(testDeadline(t))):
		t.Fatal("no job dispatched before the test deadline")
		return ""
	}
}

func (g *elasticGate) restoresOf(id string) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.restores[id]...)
}

// TestSuspendResumeLifecycle: running → suspended (checkpoint banked) →
// resumed (restored from that checkpoint) → done, with the suspension
// counters attributed to tenant and server.
func TestSuspendResumeLifecycle(t *testing.T) {
	g := newElasticGate()
	s := newTestServer(t, g, WithMaxRunning(1))
	inf, err := s.Submit(JobSpec{Tenant: "alice", Items: 4, Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	if err := s.Suspend(inf.ID); err != nil {
		t.Fatal(err)
	}
	sus := waitState(t, s, inf.ID, StateSuspended)
	if sus.CheckpointEpochs != 1 {
		t.Errorf("suspended checkpoint epochs = %d, want 1", sus.CheckpointEpochs)
	}
	if err := s.Suspend(inf.ID); !errors.Is(err, ErrAlreadySuspended) {
		t.Errorf("double suspend: err = %v, want ErrAlreadySuspended", err)
	}
	if err := s.Resume(inf.ID); err != nil {
		t.Fatal(err)
	}
	if got := g.waitStarted(t); got != inf.ID {
		t.Fatalf("resumed dispatch = %s, want %s", got, inf.ID)
	}
	if err := s.Resume(inf.ID); !errors.Is(err, ErrNotSuspended) {
		t.Errorf("resume of running job: err = %v, want ErrNotSuspended", err)
	}
	g.release <- nil
	done := waitState(t, s, inf.ID, StateDone)
	if done.Outcome == nil {
		t.Fatal("resumed job finished without an outcome")
	}
	if got := g.restoresOf(inf.ID); len(got) != 2 || got[0] != -1 || got[1] != 0 {
		t.Errorf("restore epochs per dispatch = %v, want [-1 0]", got)
	}
	snap := s.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"serve.tenant.alice.suspensions": 1,
		"serve.tenant.alice.resumes":     1,
		"serve.server.suspensions":       1,
		"serve.server.resumes":           1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestSuspendQueuedJobCountsTowardQuota: a queued job suspends
// immediately (no checkpoint), still consumes its tenant's quota while
// parked, and resumes fresh.
func TestSuspendQueuedJobCountsTowardQuota(t *testing.T) {
	g := newElasticGate()
	s := newTestServer(t, g, WithMaxRunning(1), WithTenantQuota(2))
	run, err := s.Submit(JobSpec{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	parked, err := s.Submit(JobSpec{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Suspend(parked.ID); err != nil {
		t.Fatal(err)
	}
	inf, _ := s.Status(parked.ID)
	if inf.State != StateSuspended || inf.CheckpointEpochs != 0 {
		t.Fatalf("suspended queued job = %+v, want suspended without a checkpoint", inf)
	}
	_, err = s.Submit(JobSpec{Tenant: "bob"})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "tenant quota" {
		t.Fatalf("suspended job must hold its quota claim: err = %v", err)
	}
	if err := s.Resume(parked.ID); err != nil {
		t.Fatal(err)
	}
	g.release <- nil // finish the running job; parked dispatches next
	waitState(t, s, run.ID, StateDone)
	if got := g.waitStarted(t); got != parked.ID {
		t.Fatalf("next dispatch = %s, want %s", got, parked.ID)
	}
	g.release <- nil
	waitState(t, s, parked.ID, StateDone)
	if got := g.restoresOf(parked.ID); len(got) != 1 || got[0] != -1 {
		t.Errorf("restore epochs = %v, want [-1] (fresh start)", got)
	}
}

// TestCancelledJobDropsCheckpoint: a job resumed back into the queue
// with a banked checkpoint, then cancelled — by Cancel or by Close's
// queue drain — releases the checkpoint like every other terminal job,
// instead of holding its replicas' weights for the server's lifetime.
func TestCancelledJobDropsCheckpoint(t *testing.T) {
	g := newElasticGate()
	s := newTestServer(t, g, WithMaxRunning(1))
	// park submits a job, waits for it to run, and suspends it onto a
	// checkpoint, freeing the one slot.
	park := func() string {
		inf, err := s.Submit(JobSpec{Tenant: "alice", Epochs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := g.waitStarted(t); got != inf.ID {
			t.Fatalf("dispatched %s, want %s", got, inf.ID)
		}
		if err := s.Suspend(inf.ID); err != nil {
			t.Fatal(err)
		}
		if sus := waitState(t, s, inf.ID, StateSuspended); sus.CheckpointEpochs != 1 {
			t.Fatalf("parked job = %+v, want a banked checkpoint", sus)
		}
		return inf.ID
	}
	a, b := park(), park()
	if _, err := s.Submit(JobSpec{Tenant: "bob"}); err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t) // bob holds the slot, so a and b stay queued on resume
	for _, id := range []string{a, b} {
		if err := s.Resume(id); err != nil {
			t.Fatal(err)
		}
		if inf, _ := s.Status(id); inf.State != StateQueued || inf.CheckpointEpochs != 1 {
			t.Fatalf("resumed job = %+v, want queued on its checkpoint", inf)
		}
	}
	if err := s.Cancel(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a, b} {
		if inf, _ := s.Status(id); inf.State != StateCancelled || inf.CheckpointEpochs != 0 {
			t.Errorf("cancelled job = %+v, want cancelled with no checkpoint", inf)
		}
	}
}

// TestSuspendResumeTaxonomy: every rejected transition maps to its
// sentinel — terminal jobs, unknown IDs — and a suspended job can still
// be cancelled.
func TestSuspendResumeTaxonomy(t *testing.T) {
	plain := newGateRunner()
	s := newTestServer(t, plain, WithMaxRunning(1))
	run, err := s.Submit(JobSpec{Tenant: "carol"})
	if err != nil {
		t.Fatal(err)
	}
	plain.waitStarted(t)
	if err := s.Suspend("j-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("suspend unknown: err = %v, want ErrNotFound", err)
	}
	if err := s.Resume("j-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("resume unknown: err = %v, want ErrNotFound", err)
	}
	queued, err := s.Submit(JobSpec{Tenant: "carol"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(queued.ID); !errors.Is(err, ErrNotSuspended) {
		t.Errorf("resume of queued job: err = %v, want ErrNotSuspended", err)
	}
	// A queued job suspends immediately even on a plain backend (there
	// is no running state to checkpoint), and can be cancelled parked.
	if err := s.Suspend(queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if inf, _ := s.Status(queued.ID); inf.State != StateCancelled {
		t.Errorf("cancelled suspended job state = %s", inf.State)
	}
	if err := s.Resume(queued.ID); !errors.Is(err, ErrAlreadyFinished) {
		t.Errorf("resume of cancelled job: err = %v, want ErrAlreadyFinished", err)
	}
	plain.release <- nil
	waitState(t, s, run.ID, StateDone)
	if err := s.Suspend(run.ID); !errors.Is(err, ErrAlreadyFinished) {
		t.Errorf("suspend of done job: err = %v, want ErrAlreadyFinished", err)
	}
}

// TestPreemptionForRunSlot: a submission that finds every run slot
// taken and an empty queue preempts the lowest-priority running job
// it outranks; the victim parks a checkpoint, requeues automatically,
// and later resumes from that checkpoint. An equal-priority submission
// is queued, not shed, and preempts nothing; neither does an outranking
// submission that finds a free slot.
func TestPreemptionForRunSlot(t *testing.T) {
	g := newElasticGate()
	s := newTestServer(t, g, WithMaxRunning(1))
	victim, err := s.Submit(JobSpec{Tenant: "victim", Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	vip, err := s.Submit(JobSpec{Tenant: "vip", Priority: 5})
	if err != nil {
		t.Fatalf("outranking submission: %v", err)
	}
	// The victim parks at its next boundary and requeues; the freed slot
	// goes to the vip (highest priority in queue).
	if got := g.waitStarted(t); got != vip.ID {
		t.Fatalf("post-preemption dispatch = %s, want vip %s", got, vip.ID)
	}
	vinf := waitState(t, s, victim.ID, StateQueued)
	if vinf.Preemptions != 1 || vinf.CheckpointEpochs == 0 {
		t.Errorf("preempted victim = %+v, want 1 preemption with a banked checkpoint", vinf)
	}
	peer, err := s.Submit(JobSpec{Tenant: "peer", Priority: 5})
	if err != nil || peer.State != StateQueued {
		t.Fatalf("equal-priority submission = %+v, %v; want queued", peer, err)
	}
	// Drain: vip finishes, then the peer and the victim in turn.
	g.release <- nil
	if inf := waitState(t, s, vip.ID, StateDone); inf.Preemptions != 0 {
		t.Errorf("vip preempted %d times by an equal-priority peer", inf.Preemptions)
	}
	for i := 0; i < 2; i++ {
		g.waitStarted(t)
		g.release <- nil
	}
	waitState(t, s, victim.ID, StateDone)
	if got := g.restoresOf(victim.ID); len(got) != 2 || got[0] != -1 || got[1] != 0 {
		t.Errorf("victim restore epochs = %v, want [-1 0]", got)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counters["serve.server.preemptions"]; got != 1 {
		t.Errorf("preemptions = %d, want 1", got)
	}
	if got := snap.Counters["serve.tenant.victim.suspensions"]; got != 1 {
		t.Errorf("victim suspensions = %d, want 1", got)
	}

	// With a slot free, the outranking job starts beside the low one.
	g2 := newElasticGate()
	s2 := newTestServer(t, g2, WithMaxRunning(2))
	low, err := s2.Submit(JobSpec{Tenant: "low"})
	if err != nil {
		t.Fatal(err)
	}
	g2.waitStarted(t)
	if _, err := s2.Submit(JobSpec{Tenant: "vip", Priority: 5}); err != nil {
		t.Fatal(err)
	}
	g2.waitStarted(t)
	if inf, _ := s2.Status(low.ID); inf.State != StateRunning || inf.Preemptions != 0 {
		t.Errorf("low job beside a free-slot vip = %+v, want running, never preempted", inf)
	}
	if got := s2.Metrics().Snapshot().Counters["serve.server.preemptions"]; got != 0 {
		t.Errorf("free-slot submission preempted %d jobs, want 0", got)
	}
}

// TestPreemptionCountsOnlyAPark: a victim whose backend ignores Elastic
// never parks, so the request to park is no preemption — it runs on to
// done with none counted, and the outranking job waits for its slot.
func TestPreemptionCountsOnlyAPark(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g, WithMaxRunning(1))
	low, err := s.Submit(JobSpec{Tenant: "low"})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	vip, err := s.Submit(JobSpec{Tenant: "vip", Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	g.release <- nil
	if inf := waitState(t, s, low.ID, StateDone); inf.Preemptions != 0 {
		t.Errorf("unparked victim = %+v, want done with 0 preemptions", inf)
	}
	if got := g.waitStarted(t); got != vip.ID {
		t.Fatalf("next dispatch = %s, want vip %s", got, vip.ID)
	}
	g.release <- nil
	waitState(t, s, vip.ID, StateDone)
	if got := s.Metrics().Snapshot().Counters["serve.server.preemptions"]; got != 0 {
		t.Errorf("preemptions = %d, want 0", got)
	}
}

// TestStatsNoLostJobsInvariant: across running, queued, suspended,
// done, failed, and cancelled jobs, every admitted job is accounted for
// in exactly one state tally — and Close converts the live ones to
// cancelled without losing any.
func TestStatsNoLostJobsInvariant(t *testing.T) {
	check := func(t *testing.T, st Stats) {
		t.Helper()
		if sum := st.QueueDepth + st.Running + st.Suspended + st.Done + st.Failed + st.Cancelled; sum != st.Jobs {
			t.Errorf("no-lost-jobs violated: states sum to %d, jobs = %d (%+v)", sum, st.Jobs, st)
		}
	}
	g := newElasticGate()
	s := newTestServer(t, g, WithMaxRunning(2))
	var ids []string
	for i := 0; i < 6; i++ {
		inf, err := s.Submit(JobSpec{Tenant: fmt.Sprintf("t%d", i%3)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, inf.ID)
	}
	first := g.waitStarted(t)
	g.waitStarted(t)
	check(t, s.Stats())

	if err := s.Suspend(first); err != nil { // park a running job
		t.Fatal(err)
	}
	waitState(t, s, first, StateSuspended)
	g.waitStarted(t) // a queued job takes the freed slot
	// One running job finishes, one fails (the buffered channel makes
	// which is which nondeterministic — only the tallies matter), and
	// the freed slots pull two more off the queue.
	g.release <- nil
	g.release <- errors.New("divergence")
	deadline := testDeadline(t)
	for {
		st := s.Stats()
		check(t, st)
		if st.Done == 1 && st.Failed == 1 && st.Running == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var queued string
	for _, id := range ids {
		if inf, _ := s.Status(id); inf.State == StateQueued {
			queued = id
			break
		}
	}
	if queued == "" {
		t.Fatal("expected a queued job left")
	}
	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	check(t, st)
	if st.Suspended != 1 || st.Failed != 1 || st.Done != 1 || st.Cancelled != 1 {
		t.Errorf("stats = %+v, want 1 suspended / 1 failed / 1 done / 1 cancelled", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	check(t, st)
	if st.Suspended != 0 || st.Running != 0 || st.QueueDepth != 0 {
		t.Errorf("stats after close = %+v, want no live jobs", st)
	}
	if inf, _ := s.Status(first); inf.State != StateCancelled {
		t.Errorf("suspended job state after close = %s, want cancelled", inf.State)
	}
}

// TestHTTPSuspendResume drives the suspend/resume endpoints over the
// wire, including the 409 taxonomy.
func TestHTTPSuspendResume(t *testing.T) {
	g := newElasticGate()
	_, ts := httpServer(t, g, WithMaxRunning(1))
	resp, fields := doJSON(t, "POST", ts.URL+"/v1/jobs", JobSpec{Tenant: "alice", Epochs: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := fieldString(t, fields, "id")
	g.waitStarted(t)

	resp, _ = doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/resume", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("resume of running job: status = %d, want 409", resp.StatusCode)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/suspend", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("suspend status = %d, want 202", resp.StatusCode)
	}
	deadline := testDeadline(t)
	for {
		resp, fields = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if fieldString(t, fields, "state") == string(StateSuspended) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never suspended; last body %v", fields)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/suspend", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double suspend: status = %d, want 409", resp.StatusCode)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/resume", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume status = %d, want 202", resp.StatusCode)
	}
	g.waitStarted(t)
	g.release <- nil
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/jobs/j-404/suspend", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("suspend unknown: status = %d, want 404", resp.StatusCode)
	}
}
