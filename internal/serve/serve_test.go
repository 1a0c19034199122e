package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"trainbox/internal/invariant"
	"trainbox/internal/metrics"
)

// gateRunner blocks every job until released (or cancelled), recording
// start order — the deterministic stand-in for real training.
type gateRunner struct {
	mu      sync.Mutex
	order   []string // "tenant/id" in dispatch order
	started chan string
	release chan error // one receive per completion; the value is the job's error
}

func newGateRunner() *gateRunner {
	return &gateRunner{
		started: make(chan string, 128),
		release: make(chan error, 128),
	}
}

func (g *gateRunner) Run(ctx context.Context, id string, spec JobSpec, _ Elastic) (Outcome, error) {
	g.mu.Lock()
	g.order = append(g.order, spec.Tenant)
	g.mu.Unlock()
	g.started <- id
	select {
	case err := <-g.release:
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{FinalLoss: 0.5, Samples: spec.Items * spec.Epochs}, nil
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

func (g *gateRunner) dispatchOrder() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

// waitStarted blocks until the runner has started a job, returning its id.
func (g *gateRunner) waitStarted(t *testing.T) string {
	t.Helper()
	select {
	case id := <-g.started:
		return id
	case <-time.After(time.Until(testDeadline(t))):
		t.Fatal("no job dispatched before the test deadline")
		return ""
	}
}

// testDeadline bounds a test's waits by the -timeout flag, a second
// early so the failure names what it waited for; without a deadline it
// falls back to 10 s.
func testDeadline(t *testing.T) time.Time {
	if d, ok := t.Deadline(); ok {
		return d.Add(-time.Second)
	}
	return time.Now().Add(10 * time.Second)
}

func newTestServer(t *testing.T, r Runner, opts ...Option) *Server {
	t.Helper()
	s, err := NewServer(append([]Option{WithRunner(r)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// waitState polls until the job reaches the state or the test deadline
// hits.
func waitState(t *testing.T, s *Server, id string, want State) Info {
	t.Helper()
	deadline := testDeadline(t)
	for {
		inf, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if inf.State == want {
			return inf
		}
		if inf.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, inf.State, inf.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, inf.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitValidation: malformed specs are rejected before touching
// quotas or the queue.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, newGateRunner())
	for _, spec := range []JobSpec{
		{},                           // no tenant
		{Tenant: "Bad-Tenant"},       // uppercase
		{Tenant: "9lead"},            // leading digit
		{Tenant: "ok", Priority: 10}, // priority out of range
		{Tenant: "ok", Priority: -1}, // negative priority
		{Tenant: "ok", Items: 100},   // workload too large
		{Tenant: "ok", Replicas: 9},  // too wide
		{Tenant: "ok", Name: "Bad"},  // bad label
		{Tenant: "ok", Epochs: 17},   // too long
		{Tenant: "ok", RequiredRate: -1} /* negative rate */} {
		if _, err := s.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %+v: err = %v, want ErrBadSpec", spec, err)
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counters["serve.server.admitted"]; got != 0 {
		t.Errorf("admitted = %d after only invalid submissions", got)
	}
}

// TestLifecycleDone: submit → queued/running → done, with the outcome
// retrievable and counters attributed to the tenant.
func TestLifecycleDone(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g)
	inf, err := s.Submit(JobSpec{Tenant: "alice", Items: 4, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if inf.State != StateQueued || inf.ID == "" {
		t.Fatalf("submit snapshot = %+v, want queued with an id", inf)
	}
	g.waitStarted(t)
	if _, err := s.Result(inf.ID); !errors.Is(err, ErrNotFinished) {
		t.Errorf("result of a running job: err = %v, want ErrNotFinished", err)
	}
	g.release <- nil
	done := waitState(t, s, inf.ID, StateDone)
	if done.Outcome == nil || done.Outcome.Samples != 4*2 {
		t.Fatalf("outcome = %+v, want 8 samples", done.Outcome)
	}
	res, err := s.Result(inf.ID)
	if err != nil || res.Outcome == nil {
		t.Fatalf("result = %+v, %v", res, err)
	}
	snap := s.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"serve.tenant.alice.submitted": 1,
		"serve.tenant.alice.admitted":  1,
		"serve.tenant.alice.done":      1,
		"serve.server.done":            1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestLifecycleFailed: a runner error surfaces as state failed with the
// error preserved.
func TestLifecycleFailed(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g)
	inf, err := s.Submit(JobSpec{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	g.release <- errors.New("divergence detected")
	failed := waitState(t, s, inf.ID, StateFailed)
	if !strings.Contains(failed.Error, "divergence") {
		t.Errorf("failed job error = %q", failed.Error)
	}
	if got := s.Metrics().Snapshot().Counters["serve.tenant.bob.failed"]; got != 1 {
		t.Errorf("failed counter = %d", got)
	}
}

// TestCancelQueuedAndRunning: cancelling a queued job is immediate;
// cancelling a running job propagates through its context; cancelling a
// terminal job conflicts.
func TestCancelQueuedAndRunning(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g, WithMaxRunning(1))
	run, err := s.Submit(JobSpec{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	queued, err := s.Submit(JobSpec{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if inf, _ := s.Status(queued.ID); inf.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s", inf.State)
	}
	if err := s.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, run.ID, StateCancelled)
	if err := s.Cancel(run.ID); !errors.Is(err, ErrAlreadyFinished) {
		t.Errorf("cancelling a terminal job: err = %v", err)
	}
	if err := s.Cancel("j-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancelling unknown id: err = %v", err)
	}
	if _, err := s.Result(run.ID); !errors.Is(err, ErrAlreadyFinished) {
		t.Errorf("result of cancelled job: err = %v", err)
	}
	if got := s.Metrics().Snapshot().Counters["serve.tenant.alice.cancelled"]; got != 2 {
		t.Errorf("cancelled counter = %d, want 2", got)
	}
}

// TestFairShareDispatch: with one run slot, dispatch alternates across
// tenants even when one tenant queued everything first.
func TestFairShareDispatch(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g, WithMaxRunning(1))
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(JobSpec{Tenant: "greedy"}); err != nil {
			t.Fatal(err)
		}
	}
	g.waitStarted(t) // greedy's first job occupies the slot
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Tenant: "patient"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		g.release <- nil
		if i < 4 {
			g.waitStarted(t)
		}
	}
	want := []string{"greedy", "patient", "greedy", "patient", "greedy"}
	got := g.dispatchOrder()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want fair-share %v", got, want)
	}
}

// TestPriorityDispatch: a high-priority job queued later jumps the
// whole lower class.
func TestPriorityDispatch(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g, WithMaxRunning(1))
	if _, err := s.Submit(JobSpec{Tenant: "low"}); err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	if _, err := s.Submit(JobSpec{Tenant: "low"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Tenant: "vip", Priority: 5}); err != nil {
		t.Fatal(err)
	}
	g.release <- nil
	g.waitStarted(t)
	g.release <- nil
	g.waitStarted(t)
	g.release <- nil
	want := []string{"low", "vip", "low"}
	if got := g.dispatchOrder(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want priority-first %v", got, want)
	}
}

// TestTenantQuotaSheds: the quota caps a tenant's live jobs; other
// tenants are unaffected.
func TestTenantQuotaSheds(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g, WithMaxRunning(1), WithTenantQuota(2))
	if _, err := s.Submit(JobSpec{Tenant: "hog"}); err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	if _, err := s.Submit(JobSpec{Tenant: "hog"}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(JobSpec{Tenant: "hog"})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "tenant quota" {
		t.Fatalf("third live job: err = %v, want quota shed", err)
	}
	if shed.RetryAfter <= 0 {
		t.Error("shed response has no retry-after hint")
	}
	if _, err := s.Submit(JobSpec{Tenant: "other"}); err != nil {
		t.Fatalf("other tenant shed by hog's quota: %v", err)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counters["serve.tenant.hog.shed"]; got != 1 {
		t.Errorf("hog shed counter = %d", got)
	}
	if got := snap.Counters["serve.server.shed"]; got != 1 {
		t.Errorf("server shed counter = %d", got)
	}
}

// TestQueueLimitSheds: beyond the hard queue limit every tenant is shed.
func TestQueueLimitSheds(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g, WithMaxRunning(1), WithQueueLimit(2))
	if _, err := s.Submit(JobSpec{Tenant: "t0"}); err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t) // slot occupied; queue now empties deterministically
	for _, tn := range []string{"t1", "t2"} {
		if _, err := s.Submit(JobSpec{Tenant: tn}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(JobSpec{Tenant: "t3"})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "queue full" {
		t.Fatalf("overflow submission: err = %v, want queue-full shed", err)
	}
}

// TestPressureSheds: with the pool reporting no free devices, shedding
// starts at the lower pressure threshold.
func TestPressureSheds(t *testing.T) {
	g := newGateRunner()
	pressured := true
	s := newTestServer(t, g, WithMaxRunning(1), WithQueueLimit(64), WithPressureLimit(1),
		WithPressureSignal(func() bool { return pressured }))
	if _, err := s.Submit(JobSpec{Tenant: "t0"}); err != nil {
		t.Fatal(err)
	}
	g.waitStarted(t)
	if _, err := s.Submit(JobSpec{Tenant: "t1"}); err != nil {
		t.Fatal(err) // depth 0 → 1: below nothing yet
	}
	_, err := s.Submit(JobSpec{Tenant: "t2"})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "device pressure" {
		t.Fatalf("pressured submission: err = %v, want device-pressure shed", err)
	}
	pressured = false
	if _, err := s.Submit(JobSpec{Tenant: "t2"}); err != nil {
		t.Fatalf("pressure lifted but still shed: %v", err)
	}
}

// TestCloseCancelsEverythingAndReclaimsGoroutines: Close must cancel
// queued and running jobs, refuse new submissions, and leak nothing.
func TestCloseCancelsEverythingAndReclaimsGoroutines(t *testing.T) {
	invariant.NoLeak(t)
	g := newGateRunner()
	s, err := NewServer(WithRunner(g), WithMaxRunning(2))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		inf, err := s.Submit(JobSpec{Tenant: "alice"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, inf.ID)
	}
	g.waitStarted(t)
	g.waitStarted(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		inf, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if inf.State != StateCancelled {
			t.Errorf("job %s state after close = %s, want cancelled", id, inf.State)
		}
	}
	if _, err := s.Submit(JobSpec{Tenant: "alice"}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second close: err = %v, want ErrClosed", err)
	}
}

// TestListFiltersByTenant: listings are submission-ordered and
// tenant-filterable.
func TestListFiltersByTenant(t *testing.T) {
	g := newGateRunner()
	s := newTestServer(t, g, WithMaxRunning(1))
	for _, tn := range []string{"a", "b", "a"} {
		if _, err := s.Submit(JobSpec{Tenant: tn}); err != nil {
			t.Fatal(err)
		}
	}
	g.waitStarted(t)
	if all := s.List(""); len(all) != 3 {
		t.Errorf("list all = %d jobs, want 3", len(all))
	}
	onlyA := s.List("a")
	if len(onlyA) != 2 || onlyA[0].ID >= onlyA[1].ID {
		t.Errorf("list a = %+v, want 2 jobs in submission order", onlyA)
	}
}

// TestNewTrainBackendRejectsNegativeDevices: a negative device count is
// a named error before any corpus is built, not a makeslice panic.
func TestNewTrainBackendRejectsNegativeDevices(t *testing.T) {
	runner, pool, err := NewTrainBackend(-1, 8, 3, nil)
	if err == nil || !strings.Contains(err.Error(), "device count") {
		t.Fatalf("NewTrainBackend(-1) = %v, %v, %v; want a device-count error", runner, pool, err)
	}
}

// TestEndToEndTrainingOnPool: the real backend — shared corpus, pooled
// devices, preppool registration, train.RunJobs — completes a job whose
// metrics land in both the serve.tenant.* and preppool.job.* namespaces.
func TestEndToEndTrainingOnPool(t *testing.T) {
	reg := metrics.NewRegistry()
	runner, pool, err := NewTrainBackend(2, 8, 3, reg)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, runner, WithMetrics(reg), WithPool(pool), WithMaxRunning(2))
	inf, err := s.Submit(JobSpec{Tenant: "alice", Items: 8, Epochs: 2, Replicas: 2, RequiredRate: 16000})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, inf.ID, StateDone)
	if done.Outcome == nil || done.Outcome.Samples == 0 {
		t.Fatalf("outcome = %+v", done.Outcome)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve.tenant.alice.done"]; got != 1 {
		t.Errorf("tenant done counter = %d", got)
	}
	pooled := snap.Counters["preppool.job."+inf.ID+".pooled_samples"]
	if pooled == 0 {
		t.Errorf("job claimed 16000 samples/s but preppool saw no pooled samples")
	}
	if pool.FreeDevices() != 2 {
		t.Errorf("pool has %d free devices after the job closed, want 2", pool.FreeDevices())
	}
}
