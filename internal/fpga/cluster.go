package fpga

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/metrics"
	"trainbox/internal/pipeline"
	"trainbox/internal/storage"
)

// Cluster is the runtime face of the prep pool (Section V-D): where
// SizePool and SchedulePool decide *how many* pooled accelerators a job
// gets, a Cluster actually dispatches prep jobs across the granted
// devices as one pipeline stage whose parallelism equals the device
// count. Each sample's augmentation seed depends only on (dataset seed,
// key, epoch), so batches are bit-identical to the host path no matter
// which device serves which sample — the property that makes pool
// offload transparent to training.
//
// That same property is what makes the pool self-healing: a device that
// keeps failing is ejected — the pool shrinks instead of the batch
// dying — and its samples are re-dispatched to surviving devices or,
// when every device is gone, to the host executor (WithFallback).
// Ejection is final: an ejected device serves no further sample, and a
// prep-pool retires it at the next epoch boundary. The degradation
// ladder is therefore retry-on-another-device → shrink the pool → host
// fallback, and every rung preserves bit-identical output.
//
// Membership is dynamic: Lease adds a device and Release removes one,
// the seam the multi-job prep-pool runtime (internal/preppool) uses to
// migrate pooled FPGAs between jobs as their deficits change. Both are
// batch-boundary operations — they must not run while a PrepareBatch is
// in flight.
type Cluster struct {
	name string

	fbExec  *dataprep.Executor
	fbStore *storage.Store

	mu      sync.Mutex
	devices []*device
	index   map[*P2PHandler]*device
	avail   chan *device
	alive   int
	nextID  int
	allDead chan struct{} // closed while every device is ejected

	reg       *metrics.Registry
	mJobs     *metrics.Counter // fpga.pool[.<name>].jobs_dispatched
	mEjected  *metrics.Counter // fpga.pool[.<name>].devices_ejected
	mRetries  *metrics.Counter // fpga.pool[.<name>].sample_retries
	mDegraded *metrics.Counter // fpga.pool[.<name>].degraded_samples
	gActive   *metrics.Gauge   // fpga.pool[.<name>].devices_active
	wall      atomic.Int64     // cumulative batch wall ns
}

// ejectAfter is the consecutive device-fault count that ejects a device
// from its cluster for good.
const ejectAfter = 3

// device is one pooled handler's ledger, guarded by Cluster.mu except
// for the atomic busy counter.
type device struct {
	h           *P2PHandler
	id          int // stable per-cluster id for utilization metrics
	consecFails int
	ejected     bool
	busy        atomic.Int64
}

// NewCluster builds a cluster over the pooled device handlers,
// configured by functional options (WithFallback, WithMetrics,
// WithName, WithFaults). Devices are checked out per sample, so
// concurrent batches share the pool. Health tracking always runs: a
// device ejectAfter consecutive faults in is ejected. A cluster needs
// at least one handler unless WithFallback arms a host path, in which
// case it may start empty and grow through Lease.
func NewCluster(handlers []*P2PHandler, opts ...Option) (*Cluster, error) {
	c := &Cluster{
		index:   map[*P2PHandler]*device{},
		allDead: make(chan struct{}),
	}
	for i, h := range handlers {
		if h == nil {
			return nil, fmt.Errorf("fpga: cluster handler %d is nil", i)
		}
		if _, dup := c.index[h]; dup {
			return nil, fmt.Errorf("fpga: cluster handler %d registered twice", i)
		}
		d := &device{h: h, id: c.nextID}
		c.nextID++
		c.devices = append(c.devices, d)
		c.index[h] = d
	}
	c.alive = len(c.devices)
	for _, opt := range opts {
		if err := opt.applyCluster(c); err != nil {
			return nil, err
		}
	}
	if len(c.devices) == 0 && c.fbExec == nil {
		return nil, fmt.Errorf("fpga: cluster needs at least one device handler (or a WithFallback host path)")
	}
	c.rebuildAvailLocked()
	c.resolveMetrics()
	return c, nil
}

// metricPrefix returns the cluster's metric namespace:
// "fpga.pool." unscoped, "fpga.pool.<name>." when named.
func (c *Cluster) metricPrefix() string {
	if c.name == "" {
		return "fpga.pool."
	}
	return "fpga.pool." + c.name + "."
}

// pipelineName returns the dispatch pipeline's name:
// "fpga-pool" unscoped, "fpga-pool-<name>" when named.
func (c *Cluster) pipelineName() string {
	if c.name == "" {
		return "fpga-pool"
	}
	return "fpga-pool-" + c.name
}

// resolveMetrics binds the cluster's metric handles against the
// attached registry (all handles are nil no-ops without one).
func (c *Cluster) resolveMetrics() {
	prefix := c.metricPrefix()
	c.mJobs = c.reg.Counter(prefix + "jobs_dispatched")
	c.mEjected = c.reg.Counter(prefix + "devices_ejected")
	c.mRetries = c.reg.Counter(prefix + "sample_retries")
	c.mDegraded = c.reg.Counter(prefix + "degraded_samples")
	c.gActive = c.reg.Gauge(prefix + "devices_active")
	c.gActive.SetInt(int64(c.ActiveDevices()))
}

// rebuildAvailLocked reconstructs the checkout channel from current
// membership. Callers must hold no devices checked out (the
// batch-boundary contract of membership changes) and, when the cluster
// is shared, c.mu.
func (c *Cluster) rebuildAvailLocked() {
	capacity := len(c.devices)
	if capacity == 0 {
		capacity = 1
	}
	avail := make(chan *device, capacity)
	alive := 0
	for _, d := range c.devices {
		if !d.ejected {
			avail <- d
			alive++
		}
	}
	c.avail = avail
	c.alive = alive
	if alive == 0 {
		// Degraded: ensure allDead is closed so acquirers fall through.
		select {
		case <-c.allDead:
		default:
			close(c.allDead)
		}
	} else {
		select {
		case <-c.allDead:
			c.allDead = make(chan struct{})
		default:
		}
	}
}

// Lease adds a device handler to the cluster — the grant half of the
// prep-pool migration seam. It must only be called at a batch boundary
// (no PrepareBatch in flight). The device enters healthy, with a fresh
// ledger.
func (c *Cluster) Lease(h *P2PHandler) error {
	if h == nil {
		return fmt.Errorf("fpga: lease of nil handler")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.index[h]; dup {
		return fmt.Errorf("fpga: handler already leased to this cluster")
	}
	d := &device{h: h, id: c.nextID}
	c.nextID++
	c.devices = append(c.devices, d)
	c.index[h] = d
	c.rebuildAvailLocked()
	c.gActive.SetInt(int64(c.alive))
	return nil
}

// Release removes a device handler from the cluster and hands it back
// to the caller — the reclaim half of the prep-pool migration seam. It
// must only be called at a batch boundary. Releasing an ejected device
// is allowed (that is how a pool retires dead hardware).
func (c *Cluster) Release(h *P2PHandler) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.index[h]
	if !ok {
		return fmt.Errorf("fpga: release of handler not in this cluster")
	}
	delete(c.index, h)
	for i, e := range c.devices {
		if e == d {
			c.devices = append(c.devices[:i], c.devices[i+1:]...)
			break
		}
	}
	c.rebuildAvailLocked()
	c.gActive.SetInt(int64(c.alive))
	return nil
}

// Ejected returns the handlers currently ejected by health tracking —
// what a prep-pool reaps at epoch boundaries and at job close to retire
// dead devices.
func (c *Cluster) Ejected() []*P2PHandler {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*P2PHandler
	for _, d := range c.devices {
		if d.ejected {
			out = append(out, d.h)
		}
	}
	return out
}

// Devices returns the number of member devices, ejected or not.
func (c *Cluster) Devices() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.devices)
}

// ActiveDevices returns the number of devices currently in the pool
// (not ejected).
func (c *Cluster) ActiveDevices() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alive
}

// PrepareBatch prepares the keyed objects in order across the pooled
// devices: a dispatch stage with parallelism = device count checks a
// device out of the pool per sample, runs its SSD→FPGA path, and
// returns it. Ordering and bit-identity with the host executor are
// preserved. Device-attributable failures re-dispatch the sample; only
// data errors — or an empty pool with no fallback — fail the batch.
// Each sample's buffer is an output frame of the device that prepared
// it (or of the fallback executor); dataprep.Recycle hands it back.
func (c *Cluster) PrepareBatch(ctx context.Context, keys []string, datasetSeed int64, epoch int) ([]dataprep.Prepared, error) {
	par := c.Devices()
	if par == 0 {
		par = 1 // empty pool: the stage exists to drive the host fallback
	}
	dispatch := pipeline.NewStage("pool-dispatch", par, par,
		func(ctx context.Context, i int) (dataprep.Prepared, error) {
			return c.prepareSample(ctx, keys[i], datasetSeed, epoch)
		})
	pl, err := pipeline.New(c.pipelineName(), dispatch)
	if err != nil {
		return nil, err
	}
	// A cancelled batch strands prepared samples; their frames go back
	// to the device (or fallback executor) that produced them.
	pl.WithDiscard(func(v any) {
		if p, ok := v.(dataprep.Prepared); ok {
			dataprep.Recycle(p)
		}
	})
	start := time.Now()
	out, err := pipeline.Drain[dataprep.Prepared](ctx, pl.WithMetrics(c.reg), 0, len(keys))
	c.wall.Add(time.Since(start).Nanoseconds())
	c.reportUtilization()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// prepareSample serves one sample through the degradation ladder:
// pooled devices first (re-dispatching on device faults), then the host
// fallback once the pool is empty or the sample's pool attempts are
// spent.
func (c *Cluster) prepareSample(ctx context.Context, key string, datasetSeed int64, epoch int) (dataprep.Prepared, error) {
	seed := dataprep.SampleSeed(datasetSeed, key, epoch)
	maxTries := 0 // unbounded until the first device fault sets it
	var lastErr error
	for attempt := 0; maxTries == 0 || attempt < maxTries; attempt++ {
		d, ok, err := c.acquire(ctx)
		if err != nil {
			return dataprep.Prepared{}, err
		}
		if !ok {
			break // pool empty: fall through to the host path
		}
		start := time.Now()
		p := d.h.prepareSample(ctx, key, seed, attempt)
		d.busy.Add(time.Since(start).Nanoseconds())
		c.mJobs.Inc()
		if p.Err == nil {
			c.release(d, true)
			return p, nil
		}
		deviceFault := faults.IsDeviceFault(p.Err)
		c.release(d, !deviceFault)
		if !deviceFault {
			// Data errors fail identically everywhere.
			return dataprep.Prepared{}, fmt.Errorf("fpga: pool sample %q: %w", key, p.Err)
		}
		if maxTries == 0 {
			// One sample can at worst take every strike of every device;
			// acquire reports !ok once the last one is ejected. A smaller
			// bound can spend every try on one dying device while a
			// healthy one is checked out by another sample.
			maxTries = c.Devices() * ejectAfter
		}
		lastErr = p.Err
		c.mRetries.Inc()
	}
	if c.fbExec != nil && c.fbStore != nil {
		p, err := c.fbExec.PrepareOne(ctx, c.fbStore, key, datasetSeed, epoch)
		if err != nil {
			return dataprep.Prepared{}, fmt.Errorf("fpga: degraded sample %q: %w", key, err)
		}
		c.mDegraded.Inc()
		return p, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no pooled device available")
	}
	return dataprep.Prepared{}, fmt.Errorf("fpga: pool sample %q: %w", key, lastErr)
}

// acquire checks a device out of the pool. ok=false with a nil error
// means the pool has no live device (degraded mode); a non-nil error is
// context cancellation.
func (c *Cluster) acquire(ctx context.Context) (d *device, ok bool, err error) {
	c.mu.Lock()
	avail := c.avail
	dead := c.allDead
	empty := c.alive == 0
	c.mu.Unlock()
	select {
	case d = <-avail:
		return d, true, nil
	default:
	}
	if empty {
		return nil, false, nil
	}
	select {
	case d = <-avail:
		return d, true, nil
	case <-dead:
		return nil, false, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// release returns a device to the pool, updating its health ledger:
// success (or a failure not attributable to the device) clears its
// strikes; a device fault adds one, and ejectAfter consecutive strikes
// eject it instead of returning it.
func (c *Cluster) release(d *device, clean bool) {
	c.mu.Lock()
	if clean {
		d.consecFails = 0
		avail := c.avail
		c.mu.Unlock()
		avail <- d
		return
	}
	d.consecFails++
	if d.consecFails >= ejectAfter {
		d.ejected = true
		c.alive--
		c.mEjected.Inc()
		c.gActive.SetInt(int64(c.alive))
		if c.alive == 0 {
			close(c.allDead) // wake blocked acquirers into degraded mode
		}
		c.mu.Unlock()
		return
	}
	avail := c.avail
	c.mu.Unlock()
	avail <- d
}

// reportUtilization publishes each device's share of cumulative batch
// wall time spent busy — the direct observable of whether the pool's
// devices are evenly loaded. Device ids are stable across membership
// changes, so a migrated-away device's series simply stops advancing.
func (c *Cluster) reportUtilization() {
	if c.reg == nil {
		return
	}
	wall := c.wall.Load()
	if wall <= 0 {
		return
	}
	prefix := c.metricPrefix()
	c.mu.Lock()
	devices := append([]*device(nil), c.devices...)
	c.mu.Unlock()
	for _, d := range devices {
		util := float64(d.busy.Load()) / float64(wall)
		c.reg.Gauge(fmt.Sprintf("%sdevice.%d.utilization", prefix, d.id)).Set(util)
	}
}
