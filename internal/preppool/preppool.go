// Package preppool is the live, multi-job prep-pool runtime of the
// paper's Section V-D: a shared pool of preparation FPGAs whose leases
// migrate between concurrent training jobs as their preparation
// deficits change.
//
// The static analysis half already exists — fpga.SizePool answers "how
// many pooled FPGAs does this job mix need" and fpga.SchedulePool
// answers "how should a fixed pool split across jobs". This package
// adds the runtime: jobs register with a required preparation rate,
// every job epoch splits its keys between the job's in-box path (the
// host executor standing in for in-box FPGAs) and its pooled
// fpga.Cluster, and a rebalancer re-runs the SchedulePool math at epoch
// boundaries — migrating device leases from over-provisioned jobs to
// starved ones, reclaiming capacity when a job's demand drops, and
// absorbing mid-run device death by retiring the dead device and
// granting a replacement from spare pool capacity instead of leaving
// the job on host fallback.
//
// Two invariants make the migration machinery safe:
//
//   - Bit-identity: per-sample augmentation seeds depend only on
//     (dataset seed, key, epoch), so a batch's content never depends on
//     which devices — or how many — prepared it. Lease migration and
//     device death are therefore invisible to training.
//   - Ethernet budget: when the pool is built over an eth.Network,
//     every lease holds an eth.Reservation sized to the device's
//     preparation rate; a grant that would oversubscribe the
//     port/switch budget is simply not made.
package preppool

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/eth"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/pipeline"
	"trainbox/internal/storage"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// Option configures a Pool at construction.
type Option func(*Pool) error

// WithNetwork puts the pool behind an Ethernet fabric: every device
// lease must first reserve bytesPerSample × the device's preparation
// rate of fabric bandwidth, and a lease the fabric cannot carry is not
// granted — the Section IV-D budget made enforceable.
func WithNetwork(net *eth.Network, bytesPerSample units.Bytes) Option {
	return func(p *Pool) error {
		if net == nil {
			return fmt.Errorf("preppool: WithNetwork needs a network")
		}
		if bytesPerSample <= 0 {
			return fmt.Errorf("preppool: WithNetwork needs a positive per-sample volume")
		}
		p.net, p.bytesPerSample = net, bytesPerSample
		return nil
	}
}

// WithMetrics attaches a registry: pool-wide series under
// "preppool.pool.*" and per-job series under "preppool.job.<name>.*"
// (plus each job's cluster under "fpga.pool.<name>.*").
func WithMetrics(reg *metrics.Registry) Option {
	return func(p *Pool) error {
		p.reg = reg
		return nil
	}
}

// jobName keeps per-job metric segments valid under the repo-wide
// subsystem.object.metric scheme.
var jobName = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)

// Pool owns the shared preparation devices and the lease ledger.
type Pool struct {
	net            *eth.Network
	bytesPerSample units.Bytes
	reg            *metrics.Registry

	mu         sync.Mutex
	free       []*fpga.P2PHandler
	lastOwner  map[*fpga.P2PHandler]string
	jobs       []*Job
	migrations int64 // authoritative count; mMigrations mirrors it

	mMigrations *metrics.Counter // preppool.pool.migrations
	mRetired    *metrics.Counter // preppool.pool.retired_devices
	mRebalances *metrics.Counter // preppool.pool.rebalances
	gFree       *metrics.Gauge   // preppool.pool.free_devices
}

// NewPool builds the runtime over the pooled device handlers.
func NewPool(devices []*fpga.P2PHandler, opts ...Option) (*Pool, error) {
	p := &Pool{
		lastOwner: map[*fpga.P2PHandler]string{},
	}
	for i, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("preppool: device %d is nil", i)
		}
		p.free = append(p.free, d)
	}
	for _, opt := range opts {
		if err := opt(p); err != nil {
			return nil, err
		}
	}
	p.mMigrations = p.reg.Counter("preppool.pool.migrations")
	p.mRetired = p.reg.Counter("preppool.pool.retired_devices")
	p.mRebalances = p.reg.Counter("preppool.pool.rebalances")
	p.gFree = p.reg.Gauge("preppool.pool.free_devices")
	p.gFree.SetInt(int64(len(p.free)))
	return p, nil
}

// JobSpec describes one training job registering with the pool.
type JobSpec struct {
	// Name identifies the job in telemetry and lease accounting; it must
	// match ^[a-z][a-z0-9_-]*$ and be unique within the pool.
	Name string
	// Type selects the per-FPGA preparation rate (fpga.PrepRate).
	Type workload.InputType
	// RequiredRate is the preparation throughput the job needs; change
	// it mid-run with Job.SetRequiredRate.
	RequiredRate units.SamplesPerSec
	// InBoxRate is the job's own train boxes' aggregate preparation
	// throughput — the part of the demand the pool does not need to
	// cover.
	InBoxRate units.SamplesPerSec
	// Priority places the job in a strict rebalancing tier: the
	// rebalancer satisfies higher-priority tiers' deficits first, and
	// lower tiers split only the devices left over. Within a tier the
	// SchedulePool max-min fairness is unchanged. 0 is the default tier;
	// negative priorities rank below it.
	Priority int
	// Exec and Store are the job's host preparation path, serving both
	// the in-box share of every epoch and degraded samples. Exec's
	// dataset seed must equal DatasetSeed — that is what keeps the
	// pooled and host halves of an epoch bit-identical.
	Exec  *dataprep.Executor
	Store *storage.Store
	// DatasetSeed seeds per-sample augmentation on the pooled path.
	DatasetSeed int64
}

// Job is one registered training job: a name-scoped fpga.Cluster fed by
// pool leases, plus the demand bookkeeping the rebalancer reads.
type Job struct {
	pool    *Pool
	spec    JobSpec
	cluster *fpga.Cluster

	// Guarded by pool.mu.
	leases   map[*fpga.P2PHandler]*eth.Reservation
	order    []*fpga.P2PHandler // lease order, for deterministic release
	required units.SamplesPerSec
	target   int // device count the last rebalance granted
	achieved float64
	closed   bool

	mSamples  *metrics.Counter // preppool.job.<name>.samples
	mPooled   *metrics.Counter // preppool.job.<name>.pooled_samples
	mInBox    *metrics.Counter // preppool.job.<name>.inbox_samples
	gLeases   *metrics.Gauge   // preppool.job.<name>.leases
	gShare    *metrics.Gauge   // preppool.job.<name>.pooled_share
	gAchieved *metrics.Gauge   // preppool.job.<name>.achieved_rate
	gRequired *metrics.Gauge   // preppool.job.<name>.required_rate
}

// Register adds a job to the pool. The job starts with no leases; its
// first PrepareEpoch triggers the rebalance that grants them.
func (p *Pool) Register(spec JobSpec) (*Job, error) {
	if !jobName.MatchString(spec.Name) {
		return nil, fmt.Errorf("preppool: job name %q must match %s", spec.Name, jobName)
	}
	if spec.Exec == nil || spec.Store == nil {
		return nil, fmt.Errorf("preppool: job %q needs a host executor and store", spec.Name)
	}
	if spec.RequiredRate < 0 || spec.InBoxRate < 0 {
		return nil, fmt.Errorf("preppool: job %q has negative rates", spec.Name)
	}
	// The uniqueness check must precede any name-scoped side effect
	// (cluster construction, metric binding): a rejected duplicate must
	// not clobber the live same-named job's gauges.
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, other := range p.jobs {
		if other.spec.Name == spec.Name {
			return nil, fmt.Errorf("preppool: job name %q already registered", spec.Name)
		}
	}
	cluster, err := fpga.NewCluster(nil,
		fpga.WithName(spec.Name),
		fpga.WithFallback(spec.Exec, spec.Store),
		fpga.WithMetrics(p.reg))
	if err != nil {
		return nil, err
	}
	j := &Job{
		pool:     p,
		spec:     spec,
		cluster:  cluster,
		leases:   map[*fpga.P2PHandler]*eth.Reservation{},
		required: spec.RequiredRate,
	}
	prefix := "preppool.job." + spec.Name + "."
	j.mSamples = p.reg.Counter(prefix + "samples")
	j.mPooled = p.reg.Counter(prefix + "pooled_samples")
	j.mInBox = p.reg.Counter(prefix + "inbox_samples")
	j.gLeases = p.reg.Gauge(prefix + "leases")
	j.gShare = p.reg.Gauge(prefix + "pooled_share")
	j.gAchieved = p.reg.Gauge(prefix + "achieved_rate")
	j.gRequired = p.reg.Gauge(prefix + "required_rate")
	j.gRequired.Set(float64(spec.RequiredRate))
	p.jobs = append(p.jobs, j)
	return j, nil
}

// SetRequiredRate changes the job's demand mid-run — the signal that
// makes the next epoch boundary's rebalance migrate leases toward (or
// away from) this job.
func (j *Job) SetRequiredRate(rate units.SamplesPerSec) error {
	if rate < 0 {
		return fmt.Errorf("preppool: negative required rate")
	}
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	j.required = rate
	j.gRequired.Set(float64(rate))
	return nil
}

// Close deregisters the job, returning its leases (and their network
// reservations) to the pool for other jobs to claim. Devices its
// cluster ejected since the last epoch boundary are retired instead, as
// at that boundary.
func (j *Job) Close() error {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	if j.closed {
		return fmt.Errorf("preppool: job %q closed twice", j.spec.Name)
	}
	if err := j.retireEjectedLocked(); err != nil {
		return err
	}
	// Drain rather than range: releaseLeaseLocked removes from j.order in
	// place, so a range would read shifted entries. The job is only
	// marked closed once every lease released — a failure partway leaves
	// it open and usable instead of stranded holding leases.
	for len(j.order) > 0 {
		if err := j.releaseLeaseLocked(j.order[len(j.order)-1], true); err != nil {
			return err
		}
	}
	j.closed = true
	for i, other := range j.pool.jobs {
		if other == j {
			j.pool.jobs = append(j.pool.jobs[:i], j.pool.jobs[i+1:]...)
			break
		}
	}
	return nil
}

// Preparer adapts the job to the training driver: the returned function
// is a train.EpochPreparer closing over the job's keys.
func (j *Job) Preparer(keys []string) func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
	keysCopy := append([]string(nil), keys...)
	return func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
		return j.PrepareEpoch(ctx, keysCopy, epoch)
	}
}

// PrepareEpoch prepares one epoch of the keyed dataset, split between
// the job's pooled cluster and its in-box (host) path in proportion to
// their rates, with both halves running concurrently. The result is in
// key order and bit-identical to a pure host run of the same keys. The
// epoch boundary is also where the job syncs with the pool: dead
// devices are retired, the pool rebalances, and this job's leases are
// grown or shrunk to its current grant. As with the cluster and the
// executor, dataprep.Recycle hands the samples' buffers back.
func (j *Job) PrepareEpoch(ctx context.Context, keys []string, epoch int) ([]dataprep.Prepared, error) {
	if err := j.sync(); err != nil {
		return nil, err
	}
	start := time.Now()

	j.pool.mu.Lock()
	poolRate := float64(len(j.leases)) * float64(fpga.PrepRate(j.spec.Type))
	j.pool.mu.Unlock()
	inBoxRate := float64(j.spec.InBoxRate)
	pooled := 0
	if total := poolRate + inBoxRate; total > 0 {
		pooled = int(math.Round(float64(len(keys)) * poolRate / total))
	}
	if pooled > len(keys) {
		pooled = len(keys)
	}

	// Both halves prepare concurrently; per-sample seeds depend only on
	// (dataset seed, key, epoch), so the concatenation is bit-identical
	// to either path preparing everything. The host half goes
	// resident-first when Exec is bound to a decode cache.
	out := make([]dataprep.Prepared, 0, len(keys))
	var poolOut, hostOut []dataprep.Prepared
	err := pipeline.ForEach(ctx, 2, func(ctx context.Context, half int) error {
		var err error
		if half == 0 {
			if pooled > 0 {
				poolOut, err = j.cluster.PrepareBatch(ctx, keys[:pooled], j.spec.DatasetSeed, epoch)
			}
		} else if pooled < len(keys) {
			hostOut, err = dscache.PrepareBatch(ctx, j.spec.Exec, j.spec.Store, keys[pooled:], epoch)
		}
		return err
	})
	if err != nil {
		// The half that finished hands its buffers back.
		dataprep.Recycle(poolOut...)
		dataprep.Recycle(hostOut...)
		return nil, fmt.Errorf("preppool: job %q epoch %d: %w", j.spec.Name, epoch, err)
	}
	out = append(append(out, poolOut...), hostOut...)

	elapsed := time.Since(start).Seconds()
	j.pool.mu.Lock()
	if elapsed > 0 {
		j.achieved = float64(len(out)) / elapsed
	}
	j.gAchieved.Set(j.achieved)
	j.mSamples.Add(int64(len(out)))
	j.mPooled.Add(int64(len(poolOut)))
	j.mInBox.Add(int64(len(hostOut)))
	if len(out) > 0 {
		j.gShare.Set(float64(len(poolOut)) / float64(len(out)))
	}
	j.pool.mu.Unlock()
	return out, nil
}

// sync is the epoch-boundary pool transaction: reap dead devices,
// rebalance, and settle this job's leases to its target. Every boundary
// rebalances, so demand changes, registrations, closes and device
// deaths all take effect at the next one.
func (j *Job) sync() error {
	p := j.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if j.closed {
		return fmt.Errorf("preppool: job %q is closed", j.spec.Name)
	}

	// The rebalance after the reap grants the job a replacement from
	// spare capacity instead of settling for host fallback.
	if err := j.retireEjectedLocked(); err != nil {
		return err
	}
	if err := p.rebalanceLocked(); err != nil {
		return err
	}
	return j.settleLocked()
}

// retireEjectedLocked reaps the devices the job's cluster ejected: they
// leave the lease and the pool entirely (their capacity is gone) and
// their network reservation returns to the fabric.
func (j *Job) retireEjectedLocked() error {
	for _, h := range j.cluster.Ejected() {
		if err := j.releaseLeaseLocked(h, false); err != nil {
			return err
		}
		j.pool.mRetired.Inc()
	}
	return nil
}

// rebalanceLocked recomputes every job's device target from current
// demand. Jobs are grouped into strict priority tiers (highest first);
// each tier runs the SchedulePool max-min fair math over the devices
// the higher tiers left unclaimed, so a high-priority job's deficit is
// always covered before a lower tier sees a single device. Fractional
// grants are integerized per tier by largest remainder (ties broken by
// registration order, keeping the assignment deterministic).
func (p *Pool) rebalanceLocked() error {
	total := len(p.free)
	for _, j := range p.jobs {
		total += len(j.leases)
	}

	// Distinct priorities, highest tier first.
	var prios []int
	seen := map[int]bool{}
	for _, j := range p.jobs {
		if !seen[j.spec.Priority] {
			seen[j.spec.Priority] = true
			prios = append(prios, j.spec.Priority)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(prios)))

	remaining := total
	for _, prio := range prios {
		var tier []*Job
		for _, j := range p.jobs {
			if j.spec.Priority == prio {
				tier = append(tier, j)
			}
		}
		reqs := make([]fpga.JobRequest, len(tier))
		for i, j := range tier {
			reqs[i] = fpga.JobRequest{
				Name:         j.spec.Name,
				Type:         j.spec.Type,
				RequiredRate: j.required,
				InBoxRate:    j.spec.InBoxRate,
			}
		}
		allocs, err := fpga.SchedulePool(reqs, remaining)
		if err != nil {
			return err
		}
		remaining -= integerizeGrants(tier, allocs, remaining)
	}
	p.mRebalances.Inc()
	return nil
}

// integerizeGrants turns one tier's fractional SchedulePool grants into
// whole-device targets by largest remainder, never exceeding avail
// devices, and returns how many devices the tier consumed.
func integerizeGrants(tier []*Job, allocs []fpga.JobAllocation, avail int) int {
	type grant struct {
		idx  int
		frac float64
	}
	used := 0
	grants := make([]grant, len(allocs))
	for i, a := range allocs {
		whole := int(math.Floor(a.GrantedFPGAs + 1e-9))
		if whole > avail-used {
			whole = avail - used
		}
		tier[i].target = whole
		used += whole
		grants[i] = grant{idx: i, frac: a.GrantedFPGAs - math.Floor(a.GrantedFPGAs+1e-9)}
	}
	// A fractional FPGA of demand still needs a whole device: hand the
	// remaining devices to the largest fractional remainders.
	sort.SliceStable(grants, func(a, b int) bool { return grants[a].frac > grants[b].frac })
	for _, g := range grants {
		if used == avail || g.frac <= 1e-9 {
			break
		}
		tier[g.idx].target++
		used++
	}
	return used
}

// settleLocked moves this job's lease count to its target: surplus
// leases return to the free list (most recent first) for other jobs to
// claim; missing leases are taken from the free list, each gated by a
// fabric reservation when the pool runs over a network.
func (j *Job) settleLocked() error {
	p := j.pool
	for len(j.order) > j.target {
		h := j.order[len(j.order)-1]
		if err := j.releaseLeaseLocked(h, true); err != nil {
			return err
		}
	}
	for len(j.order) < j.target && len(p.free) > 0 {
		h := p.free[0]
		var res *eth.Reservation
		if p.net != nil {
			bw := units.BytesPerSec(float64(fpga.PrepRate(j.spec.Type)) * float64(p.bytesPerSample))
			var err error
			res, err = p.net.Reserve(bw)
			if err != nil {
				break // fabric budget exhausted: the grant is simply not made
			}
		}
		if err := j.cluster.Lease(h); err != nil {
			if res != nil {
				res.Release()
			}
			return err
		}
		p.free = p.free[1:]
		j.leases[h] = res
		j.order = append(j.order, h)
		if prev := p.lastOwner[h]; prev != "" && prev != j.spec.Name {
			p.migrations++
			p.mMigrations.Inc()
		}
		p.lastOwner[h] = j.spec.Name
	}
	j.gLeases.SetInt(int64(len(j.order)))
	p.gFree.SetInt(int64(len(p.free)))
	return nil
}

// releaseLeaseLocked removes one device from the job, returning its
// fabric reservation; toFree decides whether the device re-enters the
// free list (lease reclaim) or leaves the pool (death retirement).
func (j *Job) releaseLeaseLocked(h *fpga.P2PHandler, toFree bool) error {
	res, ok := j.leases[h]
	if !ok {
		return fmt.Errorf("preppool: job %q does not hold that device", j.spec.Name)
	}
	if err := j.cluster.Release(h); err != nil {
		return err
	}
	delete(j.leases, h)
	for i, e := range j.order {
		if e == h {
			j.order = append(j.order[:i], j.order[i+1:]...)
			break
		}
	}
	if res != nil {
		if err := res.Release(); err != nil {
			return err
		}
	}
	if toFree {
		j.pool.free = append(j.pool.free, h)
	} else {
		delete(j.pool.lastOwner, h)
	}
	j.gLeases.SetInt(int64(len(j.order)))
	j.pool.gFree.SetInt(int64(len(j.pool.free)))
	return nil
}

// JobStat is one job's line in the pool's status report.
type JobStat struct {
	Name         string
	Leases       int
	RequiredRate units.SamplesPerSec
	AchievedRate float64
	PooledShare  float64
}

// Stats reports every registered job in registration order.
func (p *Pool) Stats() []JobStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]JobStat, len(p.jobs))
	for i, j := range p.jobs {
		var share float64
		pooledRate := float64(len(j.leases)) * float64(fpga.PrepRate(j.spec.Type))
		if total := pooledRate + float64(j.spec.InBoxRate); total > 0 {
			share = pooledRate / total
		}
		out[i] = JobStat{
			Name:         j.spec.Name,
			Leases:       len(j.leases),
			RequiredRate: j.required,
			AchievedRate: j.achieved,
			PooledShare:  share,
		}
	}
	return out
}

// FreeDevices returns the number of unleased pool devices.
func (p *Pool) FreeDevices() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Migrations returns how many leases have moved between distinct jobs.
func (p *Pool) Migrations() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.migrations
}
