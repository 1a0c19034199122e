// Package serve is the multi-tenant training front-end: a long-running
// submission service that turns the prep-pool from an in-process
// library into a schedulable shared resource. Tenants submit training
// jobs over a small HTTP API (see Handler); the server admits them
// under per-tenant quotas, queues them priority-first with max-min
// fair-share across tenants, dispatches up to a fixed number of
// concurrent runs onto internal/preppool + train.Run, and sheds
// load with 429 + Retry-After once a tenant's quota or the queue is
// full. A submission that finds every run slot taken preempts the
// lowest-priority running job it outranks.
//
// The layering mirrors the paper's Section V-D split: the prep-pool's
// rebalancer divides *devices* max-min across the jobs that are
// running, tier by priority, while this package's queue divides *run
// slots* max-min across the tenants that are waiting — so fairness
// holds at both the device and the job granularity, and each layer
// decides about its own resource only.
//
// Every tenant gets its own metric namespace, serve.tenant.<name>.*,
// under the repo-wide subsystem.object.metric scheme (metrics.ValidName
// accepts every name the server registers; the tenant-name grammar is
// restricted exactly so that this holds).
package serve

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sync"
	"time"

	"trainbox/internal/metrics"
	"trainbox/internal/preppool"
	"trainbox/internal/train"
)

// State is one job's position in the lifecycle state machine:
//
//	queued ←──────────┐
//	   │   (resume)   │
//	   ├──────→ suspended
//	   │  (suspend)   ↑
//	   ↓   (suspend/preempt)
//	running ──────────┘
//	   ├───→ done
//	   ├───→ failed
//	   └───→ cancelled   (queued and suspended jobs can also be cancelled)
//
// queued, running, and suspended are the live states; done, failed,
// and cancelled are terminal. A suspended job holds its latest
// epoch-boundary checkpoint (when its backend is elastic) and resumes
// bit-identically from it; preempted jobs pass through suspended and
// requeue automatically.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSuspended State = "suspended"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// nameRE restricts tenant and job names so that every derived metric
// name ("serve.tenant.<tenant>.submitted", "preppool.job.<id>.leases")
// stays valid under metrics.ValidName and preppool's job-name grammar.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_-]{0,31}$`)

// MaxPriority bounds JobSpec.Priority (higher runs first).
const MaxPriority = 9

// JobSpec is one training-job submission.
type JobSpec struct {
	// Tenant attributes the job for quotas, fair-share, and telemetry.
	// Must match ^[a-z][a-z0-9_-]{0,31}$.
	Tenant string `json:"tenant"`
	// Name is an optional tenant-side label (same grammar as Tenant);
	// the server always addresses the job by its assigned ID.
	Name string `json:"name,omitempty"`
	// Priority in [0, MaxPriority]; higher-priority jobs dispatch first
	// and register their prep-pool claim in a higher rebalancing tier.
	Priority int `json:"priority,omitempty"`
	// Items is the synthetic dataset size (defaults to 8, capped at 64;
	// raised to Replicas when smaller).
	Items int `json:"items,omitempty"`
	// Epochs is the number of training passes (defaults to 2, capped at 16).
	Epochs int `json:"epochs,omitempty"`
	// Replicas is the data-parallel width (defaults to 1, capped at 8).
	Replicas int `json:"replicas,omitempty"`
	// RequiredRate is the job's claim on the shared prep-pool in
	// samples/s; 0 keeps preparation on the host path.
	RequiredRate float64 `json:"required_rate,omitempty"`
	// Seed makes the job's dataset and training run deterministic
	// (defaults to 1).
	Seed int64 `json:"seed,omitempty"`
}

// ErrBadSpec marks submissions rejected by validation (HTTP 400).
var ErrBadSpec = errors.New("serve: invalid job spec")

// normalize validates the spec and fills defaults in place.
func (sp *JobSpec) normalize() error {
	if !nameRE.MatchString(sp.Tenant) {
		return fmt.Errorf("%w: tenant %q must match %s", ErrBadSpec, sp.Tenant, nameRE)
	}
	if sp.Name != "" && !nameRE.MatchString(sp.Name) {
		return fmt.Errorf("%w: name %q must match %s", ErrBadSpec, sp.Name, nameRE)
	}
	if sp.Priority < 0 || sp.Priority > MaxPriority {
		return fmt.Errorf("%w: priority %d outside [0,%d]", ErrBadSpec, sp.Priority, MaxPriority)
	}
	if sp.Items < 0 || sp.Epochs < 0 || sp.Replicas < 0 || sp.RequiredRate < 0 {
		return fmt.Errorf("%w: negative workload parameters", ErrBadSpec)
	}
	if sp.Items == 0 {
		sp.Items = 8
	}
	if sp.Epochs == 0 {
		sp.Epochs = 2
	}
	if sp.Replicas == 0 {
		sp.Replicas = 1
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Items > 64 || sp.Epochs > 16 || sp.Replicas > 8 {
		return fmt.Errorf("%w: workload too large (items ≤ 64, epochs ≤ 16, replicas ≤ 8)", ErrBadSpec)
	}
	if sp.Items < sp.Replicas {
		sp.Items = sp.Replicas
	}
	return nil
}

// Outcome is a finished job's training summary.
type Outcome struct {
	FinalLoss float64 `json:"final_loss"`
	Samples   int     `json:"samples"`
	Steps     int     `json:"steps"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// Info is a point-in-time snapshot of one job.
type Info struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	Name      string    `json:"name,omitempty"`
	Priority  int       `json:"priority"`
	State     State     `json:"state"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Outcome   *Outcome  `json:"outcome,omitempty"`
	// Preemptions counts how many times this job parked to free a run
	// slot for a higher-priority submission.
	Preemptions int `json:"preemptions,omitempty"`
	// CheckpointEpochs is how many training epochs the job's banked
	// checkpoint covers (0 = no checkpoint; a resume replays nothing).
	CheckpointEpochs int `json:"checkpoint_epochs,omitempty"`
}

// intent is what the server has asked of a running job, ranked: a
// higher intent overrides a lower one, so a cancel outranks a pending
// suspension and a preemption outranks a tenant's suspend.
type intent uint8

const (
	intentNone    intent = iota
	intentSuspend        // park at the next epoch boundary and stay suspended
	intentPreempt        // park, then requeue automatically
	intentCancel         // stop; never re-enter a live state
)

// job is the server-side record; guarded by Server.mu.
type job struct {
	id          string
	spec        JobSpec
	state       State // changed only by Server.moveLocked
	err         string
	submitted   time.Time
	started     time.Time
	finished    time.Time
	outcome     *Outcome
	cancel      context.CancelFunc // set while running
	pending     intent             // reset at every dispatch and requeue
	dispatchSeq int64

	// Elastic lifecycle: the live run's suspender and the latest
	// epoch-boundary checkpoint banked by the run's sink.
	suspender   *train.Suspender
	checkpoint  *train.Checkpoint
	preemptions int
}

func (j *job) info() Info {
	inf := Info{
		ID: j.id, Tenant: j.spec.Tenant, Name: j.spec.Name,
		Priority: j.spec.Priority, State: j.state, Error: j.err,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Preemptions: j.preemptions,
	}
	if j.outcome != nil {
		o := *j.outcome
		inf.Outcome = &o
	}
	if j.checkpoint != nil {
		inf.CheckpointEpochs = j.checkpoint.Epoch + 1
	}
	return inf
}

// ledger is one metric namespace's job accounting: how many jobs sit in
// each state, a gauge per live state, and a counter per lifecycle
// event. The server keeps one over every job (serve.server.*) and each
// tenant one over its own (serve.tenant.<name>.*).
type ledger struct {
	count     map[State]int
	gauge     map[State]*metrics.Gauge   // <prefix>{queued|queue_depth,running,suspended}
	entered   map[State]*metrics.Counter // <prefix>{done,failed,cancelled,suspensions}
	submitted *metrics.Counter
	admitted  *metrics.Counter
	shed      *metrics.Counter
	resumes   *metrics.Counter
}

func newLedger(reg *metrics.Registry, prefix, queuedGauge string) *ledger {
	c := func(name string) *metrics.Counter { return reg.Counter(prefix + name) }
	return &ledger{
		count: map[State]int{},
		gauge: map[State]*metrics.Gauge{
			StateQueued:    reg.Gauge(prefix + queuedGauge),
			StateRunning:   reg.Gauge(prefix + "running"),
			StateSuspended: reg.Gauge(prefix + "suspended"),
		},
		entered: map[State]*metrics.Counter{
			StateDone: c("done"), StateFailed: c("failed"),
			StateCancelled: c("cancelled"), StateSuspended: c("suspensions"),
		},
		submitted: c("submitted"), admitted: c("admitted"), shed: c("shed"), resumes: c("resumes"),
	}
}

// move books one job leaving from ("" for a new admission) for to.
// Queued is entered only by admission or by resuming a suspended job.
// Terminal states have no gauge and running has no counter; the nil
// metric is a no-op.
func (l *ledger) move(from, to State) {
	if from != "" {
		l.count[from]--
		l.gauge[from].SetInt(int64(l.count[from]))
	}
	l.count[to]++
	l.gauge[to].SetInt(int64(l.count[to]))
	switch {
	case to != StateQueued:
		l.entered[to].Inc()
	case from == "":
		l.admitted.Inc()
	default:
		l.resumes.Inc()
	}
}

// live is how many of the ledger's jobs are queued, running or suspended.
func (l *ledger) live() int {
	return l.count[StateQueued] + l.count[StateRunning] + l.count[StateSuspended]
}

// tenant is one tenant's ledger plus its fair-share dispatch clock.
type tenant struct {
	*ledger
	lastDispatch int64
}

// retryAfter is the Retry-After hint every shed response carries.
const retryAfter = time.Second

// ShedError is an admission rejection: the request was valid but the
// server is not accepting it right now (HTTP 429 + Retry-After).
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Lifecycle errors surfaced by the API layer.
var (
	ErrNotFound        = errors.New("serve: no such job")
	ErrClosed          = errors.New("serve: server is shut down")
	ErrNotFinished     = errors.New("serve: job has not finished")
	ErrAlreadyFinished = errors.New("serve: job already finished")
	// ErrAlreadySuspended: suspend of a job already suspended.
	ErrAlreadySuspended = errors.New("serve: job already suspended")
	// ErrNotSuspended: resume of a job that is not suspended.
	ErrNotSuspended = errors.New("serve: job is not suspended")
)

// Option configures a Server at construction.
type Option func(*Server) error

// WithMaxRunning caps concurrently running training jobs (default 4).
func WithMaxRunning(n int) Option {
	return func(s *Server) error {
		if n < 1 {
			return fmt.Errorf("serve: max running must be ≥ 1, got %d", n)
		}
		s.cfg.maxRunning = n
		return nil
	}
}

// WithQueueLimit sets the queue depth above which every submission is
// shed with 429 (default 64).
func WithQueueLimit(n int) Option {
	return func(s *Server) error {
		if n < 1 {
			return fmt.Errorf("serve: queue limit must be ≥ 1, got %d", n)
		}
		s.cfg.queueLimit = n
		return nil
	}
}

// WithTenantQuota caps one tenant's live (queued + running + suspended)
// jobs (default 8); submissions beyond it are shed with 429.
func WithTenantQuota(n int) Option {
	return func(s *Server) error {
		if n < 1 {
			return fmt.Errorf("serve: tenant quota must be ≥ 1, got %d", n)
		}
		s.cfg.tenantQuota = n
		return nil
	}
}

// WithMetrics attaches the registry the server (and its default
// TrainRunner's pool jobs, when they share it) reports into.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Server) error {
		if reg == nil {
			return fmt.Errorf("serve: WithMetrics needs a registry")
		}
		s.reg = reg
		return nil
	}
}

// WithPool wires the shared prep-pool, the one NewTrainBackend returns
// beside the TrainRunner that dispatches onto it: its free-device count
// feeds the status report. The server never decides about devices —
// the pool moves them between jobs by priority tier.
func WithPool(pool *preppool.Pool) Option {
	return func(s *Server) error {
		if pool == nil {
			return fmt.Errorf("serve: WithPool needs a pool")
		}
		s.pool = pool
		return nil
	}
}

// WithRunner sets the training backend. Required — use the TrainRunner
// from NewTrainBackend for real training, or any Runner for tests.
func WithRunner(r Runner) Option {
	return func(s *Server) error {
		if r == nil {
			return fmt.Errorf("serve: WithRunner needs a runner")
		}
		s.runner = r
		return nil
	}
}

type config struct {
	maxRunning  int
	queueLimit  int
	tenantQuota int
}

// Server is the multi-tenant front-end. Construct with NewServer, serve
// its Handler, and Close it to cancel every live job and reclaim every
// goroutine.
type Server struct {
	cfg    config
	runner Runner
	reg    *metrics.Registry
	pool   *preppool.Pool

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job IDs in submission order, for stable listings
	q       *queue
	tenants map[string]*tenant
	total   *ledger // serve.server.*: every tenant's jobs
	seq     int64
	closed  bool

	wake       chan struct{}
	schedDone  chan struct{}
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	cPreemptions *metrics.Counter   // serve.server.preemptions
	hSubmitNs    *metrics.Histogram // serve.server.submit_ns
}

// NewServer builds and starts the front-end (its scheduler goroutine
// runs until Close).
func NewServer(opts ...Option) (*Server, error) {
	s := &Server{
		cfg: config{
			maxRunning:  4,
			queueLimit:  64,
			tenantQuota: 8,
		},
		jobs:      map[string]*job{},
		q:         newQueue(),
		tenants:   map[string]*tenant{},
		wake:      make(chan struct{}, 1),
		schedDone: make(chan struct{}),
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	if s.runner == nil {
		return nil, fmt.Errorf("serve: a training backend is required (WithRunner; see NewTrainBackend)")
	}
	s.total = newLedger(s.reg, "serve.server.", "queue_depth")
	s.cPreemptions = s.reg.Counter("serve.server.preemptions")
	s.hSubmitNs = s.reg.Histogram("serve.server.submit_ns")
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	go s.schedule()
	return s, nil
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// tenantLocked finds or creates the tenant record and its namespace.
func (s *Server) tenantLocked(name string) *tenant {
	t := s.tenants[name]
	if t == nil {
		t = &tenant{ledger: newLedger(s.reg, "serve.tenant."+name+".", "queued")}
		s.tenants[name] = t
	}
	return t
}

// moveLocked is the one place a job changes state: it books the move in
// the job's tenant ledger and in the server ledger, then sets j.state.
// A terminal move stamps the finish time and drops the checkpoint — a
// job that can never resume holds no replica weights.
func (s *Server) moveLocked(j *job, to State) {
	s.tenants[j.spec.Tenant].move(j.state, to)
	s.total.move(j.state, to)
	j.state = to
	if to.Terminal() {
		j.finished = time.Now()
		j.checkpoint = nil
	}
}

// Submit validates and admits one job, returning its queued snapshot.
// An admitted job that finds every run slot taken preempts the
// lowest-priority running job it outranks (see preemptLocked).
// Admission rejections return *ShedError; validation failures wrap
// ErrBadSpec; a closed server returns ErrClosed.
func (s *Server) Submit(spec JobSpec) (Info, error) {
	start := time.Now()
	if err := spec.normalize(); err != nil {
		return Info{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Info{}, ErrClosed
	}
	t := s.tenantLocked(spec.Tenant)
	t.submitted.Inc()
	s.total.submitted.Inc()

	if shed := s.shedReasonLocked(t); shed != "" {
		t.shed.Inc()
		s.total.shed.Inc()
		s.mu.Unlock()
		return Info{}, &ShedError{Reason: shed, RetryAfter: retryAfter}
	}
	// A priority-0 job outranks nothing, so it never pays for the scan.
	if spec.Priority > 0 && s.total.count[StateRunning] >= s.cfg.maxRunning {
		s.preemptLocked(spec.Priority)
	}

	s.seq++
	j := &job{id: fmt.Sprintf("j-%d", s.seq), spec: spec, submitted: time.Now()}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.q.push(j)
	s.moveLocked(j, StateQueued)
	inf := j.info()
	s.mu.Unlock()

	s.kick()
	s.hSubmitNs.ObserveDuration(time.Since(start))
	return inf, nil
}

// shedReasonLocked evaluates the admission-control policy in order:
// per-tenant quota (suspended jobs still count — a parked job holds its
// tenant's claim), then the queue limit.
func (s *Server) shedReasonLocked(t *tenant) string {
	if t.live() >= s.cfg.tenantQuota {
		return "tenant quota"
	}
	if s.q.len() >= s.cfg.queueLimit {
		return "queue full"
	}
	return ""
}

// preemptLocked picks the lowest-priority running job strictly below
// prio with nothing yet asked of it, and asks it to park at its next
// epoch boundary. The victim frees its run slot and pool leases when it
// parks; finish() requeues it automatically (state suspended → queued)
// so it resumes — from its checkpoint, bit-identically — once a slot
// frees; finish() counts the preemption then. A backend that ignores
// Elastic never parks, so its victim runs on to its own end and counts
// none.
func (s *Server) preemptLocked(prio int) {
	var victim *job
	for _, j := range s.jobs {
		if j.state != StateRunning || j.pending != intentNone || j.spec.Priority >= prio {
			continue
		}
		// Lowest priority first; among equals prefer the youngest run —
		// per-epoch checkpoints mean the least banked work is re-proven.
		if victim == nil || j.spec.Priority < victim.spec.Priority ||
			(j.spec.Priority == victim.spec.Priority && j.started.After(victim.started)) {
			victim = j
		}
	}
	if victim == nil {
		return
	}
	victim.pending = intentPreempt
	victim.suspender.Suspend()
}

// kick wakes the scheduler without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// schedule is the dispatch loop: whenever woken it fills every free run
// slot from the queue, fair-share order.
func (s *Server) schedule() {
	defer close(s.schedDone)
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.wake:
		}
		s.mu.Lock()
		for !s.closed && s.total.count[StateRunning] < s.cfg.maxRunning {
			j := s.q.pop(func(name string) (int, int64) {
				t := s.tenants[name]
				return t.count[StateRunning], t.lastDispatch
			})
			if j == nil {
				break
			}
			s.startLocked(j)
		}
		s.mu.Unlock()
	}
}

// startLocked moves a popped job to running and launches its runner.
// Every run is suspendable: it gets a fresh Suspender, a checkpoint sink
// banking every epoch boundary into the job record (crash-safe: the
// newest checkpoint survives the runner goroutine), and — when resuming
// — the banked checkpoint to restore.
func (s *Server) startLocked(j *job) {
	s.moveLocked(j, StateRunning)
	s.tenants[j.spec.Tenant].lastDispatch = j.dispatchSeq
	j.pending = intentNone
	if j.started.IsZero() {
		j.started = time.Now()
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	e := Elastic{Suspender: train.NewSuspender()}
	j.suspender = e.Suspender
	if j.checkpoint != nil {
		cp := j.checkpoint.Clone()
		e.Restore = &cp
	}
	e.Checkpoint = func(cp train.Checkpoint) {
		s.mu.Lock()
		j.checkpoint = &cp
		s.mu.Unlock()
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		out, err := s.runner.Run(ctx, j.id, j.spec, e)
		s.finish(j, out, err)
	}()
}

// settle classifies how a run ended, given what was pending on it,
// whether the server has closed, and whether a checkpoint is banked.
//
// Suspension is deliberately two-tiered. A clean park surfaces
// train.ErrSuspended. But a preempted or suspend-requested run that
// instead crashes mid-epoch is still recoverable whenever an
// epoch-boundary checkpoint was banked: the job parks on that checkpoint
// rather than failing — nothing admitted is lost to a racy shutdown. A
// cancel request always outranks a pending suspension, and a park that
// races Close classifies as cancelled, like everything else still live
// at shutdown — nothing may re-enter a live state.
func settle(pending intent, closed, banked bool, err error) State {
	parked := errors.Is(err, train.ErrSuspended)
	stopped := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	switch {
	case err == nil:
		return StateDone
	case !closed && pending != intentCancel && (parked || (pending >= intentSuspend && banked && !stopped)):
		return StateSuspended
	case pending == intentCancel || parked || stopped:
		return StateCancelled
	default:
		return StateFailed
	}
}

// finish records a runner's outcome and frees the slot.
func (s *Server) finish(j *job, out Outcome, err error) {
	s.mu.Lock()
	j.suspender = nil
	to := settle(j.pending, s.closed, j.checkpoint != nil, err)
	switch to {
	case StateDone:
		j.outcome = &out
	case StateFailed, StateCancelled:
		j.err = err.Error()
	}
	s.moveLocked(j, to)
	if to == StateSuspended && j.pending == intentPreempt {
		// A preemption counts once the victim has parked (a backend
		// that ignores Elastic runs on to its end and counts none). It
		// requeues automatically: the job resumes from its checkpoint
		// as soon as a run slot frees up.
		j.preemptions++
		s.cPreemptions.Inc()
		s.resumeLocked(j)
	}
	s.mu.Unlock()
	s.kick()
}

// Status returns a job snapshot.
func (s *Server) Status(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Info{}, ErrNotFound
	}
	return j.info(), nil
}

// Result returns a done job's snapshot (including its Outcome).
// Live jobs return ErrNotFinished; failed or cancelled jobs return
// ErrAlreadyFinished with their terminal state in the message.
func (s *Server) Result(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Info{}, ErrNotFound
	}
	switch {
	case j.state == StateDone:
		return j.info(), nil
	case j.state.Terminal():
		return j.info(), fmt.Errorf("%w: job %s is %s, not done", ErrAlreadyFinished, id, j.state)
	default:
		return j.info(), fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, j.state)
	}
}

// liveLocked finds a job that can still change state: unknown IDs
// return ErrNotFound and terminal jobs ErrAlreadyFinished.
func (s *Server) liveLocked(id string) (*job, error) {
	j := s.jobs[id]
	switch {
	case j == nil:
		return nil, ErrNotFound
	case j.state.Terminal():
		return nil, fmt.Errorf("%w: job %s is %s", ErrAlreadyFinished, id, j.state)
	}
	return j, nil
}

// Cancel stops a live job. Terminal jobs return ErrAlreadyFinished;
// unknown IDs ErrNotFound. Cancellation of a running job is
// asynchronous — poll Status for "cancelled".
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, err := s.liveLocked(id)
	var cancel context.CancelFunc
	switch {
	case err != nil:
	case j.state == StateRunning:
		j.pending = intentCancel
		cancel = j.cancel
	default:
		if j.state == StateQueued {
			s.q.remove(j)
		}
		s.moveLocked(j, StateCancelled)
	}
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return err
}

// Suspend parks a live job. A queued job is suspended immediately (it
// has no state to checkpoint); a running job is asked to park at its
// next epoch boundary — asynchronous, poll Status for "suspended". A
// backend that ignores Elastic never parks, so its job runs on to its
// own end. The suspended job keeps counting toward its tenant's quota,
// and resumes only via Resume. Suspended jobs return
// ErrAlreadySuspended, terminal jobs ErrAlreadyFinished.
func (s *Server) Suspend(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	j, err := s.liveLocked(id)
	switch {
	case err != nil:
		return err
	case j.state == StateSuspended:
		return fmt.Errorf("%w: job %s", ErrAlreadySuspended, id)
	case j.state == StateQueued:
		s.q.remove(j)
		s.moveLocked(j, StateSuspended)
	case j.pending == intentCancel:
		return fmt.Errorf("%w: job %s is being cancelled", ErrAlreadyFinished, id)
	default:
		// Idempotent while the park is in flight; the epoch boundary
		// that honors it delivers the checkpoint through the sink.
		j.pending = max(j.pending, intentSuspend)
		j.suspender.Suspend()
	}
	return nil
}

// Resume requeues a suspended job; it re-enters dispatch at its
// priority and — when its backend banked a checkpoint — restores from
// it, continuing bit-identically with the uninterrupted run. Jobs in
// any other live state return ErrNotSuspended, terminal jobs
// ErrAlreadyFinished.
func (s *Server) Resume(id string) error {
	s.mu.Lock()
	j, err := s.liveLocked(id)
	switch {
	case s.closed:
		err = ErrClosed
	case err != nil:
	case j.state != StateSuspended:
		err = fmt.Errorf("%w: job %s is %s", ErrNotSuspended, id, j.state)
	default:
		s.resumeLocked(j)
	}
	s.mu.Unlock()
	if err == nil {
		s.kick()
	}
	return err
}

// resumeLocked moves a suspended job back into the dispatch queue.
func (s *Server) resumeLocked(j *job) {
	s.moveLocked(j, StateQueued)
	j.pending = intentNone
	s.q.push(j)
}

// List returns snapshots in submission order, optionally filtered by
// tenant ("" = all).
func (s *Server) List(tenantName string) []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if tenantName != "" && j.spec.Tenant != tenantName {
			continue
		}
		out = append(out, j.info())
	}
	return out
}

// Stats is the health endpoint's summary. The per-state tallies carry
// the no-lost-jobs invariant every admitted job satisfies at all times:
//
//	Jobs == QueueDepth + Running + Suspended + Done + Failed + Cancelled
type Stats struct {
	QueueDepth  int  `json:"queue_depth"`
	Running     int  `json:"running"`
	Suspended   int  `json:"suspended"`
	Done        int  `json:"done"`
	Failed      int  `json:"failed"`
	Cancelled   int  `json:"cancelled"`
	MaxRunning  int  `json:"max_running"`
	Jobs        int  `json:"jobs"`
	Tenants     int  `json:"tenants"`
	Pool        bool `json:"pool"`
	FreeDevices int  `json:"free_devices"`
	Closed      bool `json:"closed"`
}

// Stats reports the server's live occupancy.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := s.total.count
	st := Stats{
		QueueDepth: n[StateQueued], Running: n[StateRunning], Suspended: n[StateSuspended],
		Done: n[StateDone], Failed: n[StateFailed], Cancelled: n[StateCancelled],
		MaxRunning: s.cfg.maxRunning,
		Jobs:       len(s.jobs),
		Tenants:    len(s.tenants),
		Pool:       s.pool != nil,
		Closed:     s.closed,
	}
	s.mu.Unlock()
	if s.pool != nil {
		st.FreeDevices = s.pool.FreeDevices()
	} else {
		st.FreeDevices = -1
	}
	return st
}

// Close shuts the front-end down: queued and suspended jobs become
// cancelled, running jobs are cancelled through their contexts, and
// Close blocks until the scheduler and every runner goroutine have
// exited. Safe to call once; a second Close returns ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.q.drain()
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateSuspended {
			j.err = "server shut down"
			s.moveLocked(j, StateCancelled)
		}
	}
	s.mu.Unlock()

	s.baseCancel()
	<-s.schedDone
	s.wg.Wait()
	return nil
}
