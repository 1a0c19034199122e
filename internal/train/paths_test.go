package train

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/faults"
	"trainbox/internal/fpga"
	"trainbox/internal/invariant"
	"trainbox/internal/memframe"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/preppool"
	"trainbox/internal/storage"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// The training-path matrix. Per-sample augmentation depends only on
// (dataset seed, key, epoch), so where a sample is prepared, whether its
// decode comes from a dscache tier, and what interrupts the run must
// never show in the trained model: every cell of placement × cache ×
// interruption × replicas reproduces the host, uncached, uninterrupted
// run at the same replica count bit for bit.
type pathCell struct {
	place     string // "host" (WithDataset), "cluster" (fpga.Cluster with host fallback) or "pool" (a preppool job)
	cache     string // "uncached", "ample" (every key decoded once) or "evicting" (a budget below the working set)
	intr      string // "none", "suspend" (park, restore from every checkpoint), "preempt" (suspend for a higher-priority pool job that trains first) or "death" (device 0 flaky, then dead)
	replicas  int
	suspendAt int   // boundary the interrupted run parks at
	deathAt   int64 // reads device 0 serves before it dies
}

func (c pathCell) String() string {
	return fmt.Sprintf("%s-%s-%s-r%d", c.place, c.cache, c.intr, c.replicas)
}

const (
	pathItems   = 8
	pathEpochs  = 4
	pathDevices = 3
	maxDeathAt  = 6 // a later death can miss the run on a cluster
	strikeOut   = 3 // consecutive device faults that eject a device
)

// A 400 KB budget holds two of the eight 256² decodes.
var cacheBudgets = map[string]units.Bytes{"ample": 64 * units.MB, "evicting": 400 * units.KB}

// strikeLedger wraps device 0's injector and counts what it injected:
// every fault is one sample retry, and a run of strikeOut consecutive
// faults ejects the device for good. A device serves one sample at a
// time, so its injections arrive in the order its cluster counts them.
type strikeLedger struct {
	inj faults.Injector

	mu          sync.Mutex
	faults, run int64
	ejected     int64 // 1 once a run reached strikeOut
}

func (l *strikeLedger) Inject(op faults.Op) faults.Fault {
	f := l.inj.Inject(op)
	l.mu.Lock()
	defer l.mu.Unlock()
	if f.Err == nil {
		l.run = 0
		return f
	}
	l.faults++
	if l.run++; l.run == strikeOut {
		l.ejected = 1
	}
	return f
}

// pathCells lists the 21 valid combinations at one replica: a host
// executor has no device to lose, a cluster takes no cache, and only a
// pool job has leases to take. The preempt cells come last, so the fuzz
// seeds' cell indices keep naming the same cells. An interrupted run
// parks at boundary 1: past the epoch in flight then, epoch 3 is left
// for the gate to keep unprepared.
func pathCells() []pathCell {
	var out []pathCell
	for _, p := range []string{"host", "cluster", "pool"} {
		for _, c := range []string{"uncached", "ample", "evicting"} {
			for _, i := range []string{"none", "suspend", "death"} {
				if (p == "host" && i == "death") || (p == "cluster" && c != "uncached") {
					continue
				}
				out = append(out, pathCell{place: p, cache: c, intr: i, replicas: 1, suspendAt: 1, deathAt: 3})
			}
		}
	}
	for _, c := range []string{"uncached", "ample", "evicting"} {
		out = append(out, pathCell{place: "pool", cache: c, intr: "preempt", replicas: 1, suspendAt: 1})
	}
	return out
}

// pathData is one dataset; its seed builds the images and seeds their
// augmentation.
type pathData struct {
	store *storage.Store
	ns    *nvme.Namespace
	img   dataprep.ImageConfig
	seed  int64
}

func newPathData(t testing.TB, seed int64) pathData {
	t.Helper()
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, pathItems, 4, seed); err != nil {
		t.Fatal(err)
	}
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	img := dataprep.DefaultImageConfig()
	img.CropW, img.CropH = 32, 32
	return pathData{store, ns, img, seed}
}

func (d pathData) executor() *dataprep.Executor {
	return dataprep.NewExecutor(dataprep.ImagePreparer{Config: d.img}, 2, d.seed)
}

// producer is a source of pooled output buffers: an executor or a P2P
// handler.
type producer interface{ OutputStats() memframe.Stats }

// devices builds the P2P handlers of a cluster or pool; device 0 takes
// the injector.
func (d pathData) devices(t testing.TB, inj faults.Injector) []*fpga.P2PHandler {
	t.Helper()
	hs := make([]*fpga.P2PHandler, pathDevices)
	for i := range hs {
		h, err := fpga.NewP2PHandler(d.ns, fpga.NewImageEmulator(d.img), 8, fpga.WithFaults(inj))
		if err != nil {
			t.Fatal(err)
		}
		hs[i], inj = h, nil
	}
	return hs
}

// pathConfig trains with momentum, so a restore must carry the
// optimizer's velocity.
func pathConfig(replicas int, reg *metrics.Registry) Config {
	return Config{Replicas: replicas, Widths: []int{64, 16, 4}, Epochs: pathEpochs,
		LearningRate: 0.05, Momentum: 0.9, PrefetchDepth: 2, Seed: 9, Metrics: reg}
}

// reference trains the host, uncached, uninterrupted cell.
func (d pathData) reference(t testing.TB, replicas int) Result {
	t.Helper()
	res, err := Run(context.Background(), pathConfig(replicas, nil),
		WithDataset(d.executor(), d.store, d.store.Keys()), WithFeature(BlockFeature))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameModel is the package's one model comparison: every weight
// and bias of got's model equals want's (compared in the Weights layout:
// each layer's W, then its B), and got's step losses equal the tail of
// want's (a restored run replays only the last epochs).
func assertSameModel(t testing.TB, label string, got, want Result) {
	t.Helper()
	g, w := got.Model().Weights(), want.Model().Weights()
	if len(g) != len(w) {
		t.Fatalf("%s: %d parameters, want %d", label, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: parameter %d = %v, want %v", label, i, g[i], w[i])
		}
	}
	skip := len(want.Steps) - len(got.Steps)
	if skip < 0 {
		t.Fatalf("%s: %d steps, want at most %d", label, len(got.Steps), len(want.Steps))
	}
	for i, s := range got.Steps {
		if w := want.Steps[skip+i].MeanLoss; s.MeanLoss != w {
			t.Fatalf("%s: step %d loss %v, want %v", label, skip+i, s.MeanLoss, w)
		}
	}
}

// runCell trains cell c on d, checks every run against want, then checks
// that the cell exercised what it names and that every output buffer
// its producers handed out came back. It reports whether device 0
// struck out.
func runCell(t *testing.T, d pathData, c pathCell, want Result) (struckOut bool) {
	t.Helper()
	ctx, reg, keys := context.Background(), metrics.NewRegistry(), d.store.Keys()
	var flaky faults.Injector
	ledger := &strikeLedger{}
	if c.intr == "death" {
		ledger.inj = faults.Chain(faults.NewDeviceDeath(c.deathAt), faults.NewErrorRate(2001, 0.12, nil))
		flaky = ledger
	}
	var producers []producer
	executor := func() *dataprep.Executor {
		e := d.executor().WithMetrics(reg)
		producers = append(producers, e)
		return e
	}
	var devices []*fpga.P2PHandler
	if c.place != "host" {
		devices = d.devices(t, flaky)
		for _, h := range devices {
			producers = append(producers, h)
		}
	}
	cfg := pathConfig(c.replicas, reg)
	var cache *dscache.Cache
	if budget, ok := cacheBudgets[c.cache]; ok {
		cache = dscache.New(budget)
	}
	// hooked runs hook as each epoch's preparation starts.
	hooked := func(p EpochPreparer, hook func(context.Context, int) error) EpochPreparer {
		if hook == nil {
			return p
		}
		return func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
			if err := hook(ctx, epoch); err != nil {
				return nil, err
			}
			return p(ctx, epoch)
		}
	}

	// leg is one train.Run on the cell's placement, its preparation
	// hooked when hook is set. On the pool it prepares through job (a
	// fresh registration of the cell's own when nil) and closes it.
	var leg func(job *preppool.Job, hook func(context.Context, int) error, opts ...Option) (Result, error)
	// perEpoch is what one epoch prepares: samples from devices, from a
	// pool job's in-box half, and from host executors.
	var perEpoch [3]int64
	var register func(name string, prio int) (*preppool.Job, error)
	var cluster *fpga.Cluster
	var pool *preppool.Pool
	var err error
	switch c.place {
	case "host":
		perEpoch = [3]int64{0, 0, pathItems}
		leg = func(_ *preppool.Job, hook func(context.Context, int) error, opts ...Option) (Result, error) {
			exec := executor()
			opts = append(opts, WithFeature(BlockFeature))
			if hook == nil {
				opts = append(opts, WithDataset(exec, d.store, keys))
				if cache != nil {
					opts = append(opts, WithCache(cache))
				}
				return Run(ctx, cfg, opts...)
			}
			// What WithDataset and WithCache run, as a preparer to hook.
			if cache != nil {
				dscache.Bind(cache, exec)
			}
			prep := func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
				return dscache.PrepareBatch(ctx, exec, d.store, keys, epoch)
			}
			return Run(ctx, cfg, append(opts, WithPreparer(hooked(prep, hook), len(keys)))...)
		}
	case "cluster":
		perEpoch = [3]int64{pathItems, 0, 0}
		cluster, err = fpga.NewCluster(devices, fpga.WithFallback(executor(), d.store), fpga.WithMetrics(reg))
		prep := func(ctx context.Context, epoch int) ([]dataprep.Prepared, error) {
			return cluster.PrepareBatch(ctx, keys, d.seed, epoch)
		}
		leg = func(_ *preppool.Job, hook func(context.Context, int) error, opts ...Option) (Result, error) {
			return Run(ctx, cfg, append(opts, WithPreparer(hooked(prep, hook), len(keys)), WithFeature(BlockFeature))...)
		}
	case "pool":
		pool, err = preppool.NewPool(devices, preppool.WithMetrics(reg))
		// Jobs register behind the cache, as the serve runner does. An
		// in-box rate equal to one device's grants one lease and splits
		// every epoch evenly; a preempt cell's jobs each need the whole
		// pool, so the preempting job can only take the parked one's.
		grant, need := 1, 2*fpga.ImagePrepRate
		if c.intr == "preempt" {
			grant, need = pathDevices, (pathDevices+1)*fpga.ImagePrepRate
		}
		pooled := int64(pathItems * grant / (grant + 1))
		perEpoch = [3]int64{pooled, pathItems - pooled, pathItems - pooled}
		register = func(name string, prio int) (*preppool.Job, error) {
			exec := executor()
			if cache != nil {
				dscache.Bind(cache, exec)
			}
			return pool.Register(preppool.JobSpec{Name: name, Type: workload.Image, Priority: prio,
				RequiredRate: need, InBoxRate: fpga.ImagePrepRate,
				Exec: exec, Store: d.store, DatasetSeed: d.seed})
		}
		leg = func(job *preppool.Job, hook func(context.Context, int) error, opts ...Option) (Result, error) {
			if job == nil {
				var err error
				if job, err = register("cell", 0); err != nil {
					return Result{}, err
				}
			}
			res, err := Run(ctx, cfg, append(opts, WithPreparer(hooked(job.Preparer(keys), hook), len(keys)), WithFeature(BlockFeature))...)
			// A preempted leg's last epoch synced after the preempting
			// job registered and lost every lease; the rest keep their
			// grant.
			wantHeld := grant
			if hook != nil && c.intr == "preempt" {
				wantHeld = 0
			}
			if held := pathDevices - pool.FreeDevices() - int(reg.Snapshot().Counters["preppool.pool.retired_devices"]); held != wantHeld {
				t.Errorf("a leg ended with %d leases held, want %d", held, wantHeld)
			}
			return res, errors.Join(err, job.Close())
		}
	}
	if err != nil {
		t.Fatal(err)
	}

	// checkPrepared asserts that the last leg prepared epochs whole
	// epochs plus extra, in the counters perEpoch counts.
	var seen [3]int64
	checkPrepared := func(label string, epochs int, extra [3]int64) {
		n := reg.Snapshot().Counters
		got := [3]int64{n["fpga.pool.jobs_dispatched"], 0, n["dataprep.executor.samples_prepared"]}
		for _, job := range []string{"cell", "vip"} {
			got[0] += n["preppool.job."+job+".pooled_samples"]
			got[1] += n["preppool.job."+job+".inbox_samples"]
		}
		leg, want := got, extra
		for i := range got {
			leg[i] -= seen[i]
			want[i] += int64(epochs) * perEpoch[i]
		}
		if seen = got; leg != want {
			t.Errorf("%s prepared %v device, in-box and executor samples, want %v", label, leg, want)
		}
	}

	// finishes runs a leg that must train to want, preparing epochs
	// whole epochs.
	finishes := func(label string, job *preppool.Job, epochs int, opts ...Option) Result {
		res, err := leg(job, nil, opts...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSameModel(t, label, res, want)
		if c.intr != "death" {
			checkPrepared(label, epochs, [3]int64{})
		}
		return res
	}
	if c.intr == "none" || c.intr == "death" {
		finishes(c.String(), nil, pathEpochs)
	} else {
		// The park request is raised as epoch suspendAt+1 starts
		// preparing, once the step stage has trained epoch suspendAt and
		// entered the sink, so the run parks at boundary suspendAt with
		// epochs 0..suspendAt+1 prepared, the last one untrained. A
		// preempt cell registers the higher-priority job at that point:
		// the parked job's last epoch syncs with it and runs in-box.
		s := NewSuspender()
		trained, requested := make(chan struct{}), make(chan struct{})
		var vip *preppool.Job
		hook := func(ctx context.Context, epoch int) (err error) {
			if epoch != c.suspendAt+1 {
				return nil
			}
			select {
			case <-trained:
			case <-ctx.Done():
				return ctx.Err()
			}
			defer close(requested)
			if c.intr == "preempt" {
				vip, err = register("vip", 1)
			}
			s.Suspend()
			return err
		}
		var cps []Checkpoint
		_, err := leg(nil, hook, WithSuspender(s), WithCheckpointSink(func(cp Checkpoint) {
			if cps = append(cps, cp); cp.Epoch == c.suspendAt {
				close(trained)
				<-requested
			}
		}))
		if !errors.Is(err, ErrSuspended) || len(cps) != c.suspendAt+1 {
			t.Fatalf("suspended run returned %v with %d checkpoints, want ErrSuspended with %d", err, len(cps), c.suspendAt+1)
		}
		last := perEpoch
		if vip != nil {
			last = [3]int64{0, pathItems, pathItems}
		}
		checkPrepared("the parked leg", c.suspendAt+1, last)
		if vip != nil {
			finishes(c.String()+" preempting job", vip, pathEpochs)
		}
		for _, cp := range cps {
			// A sink on the finishing leg, as serve attaches, must not
			// perturb it either.
			epochs := pathEpochs - 1 - cp.Epoch
			res := finishes(fmt.Sprintf("%v restored from epoch %d", c, cp.Epoch), nil, epochs,
				WithRestore(cp), WithCheckpointSink(func(Checkpoint) {}))
			if res.SamplesProcessed != epochs*pathItems {
				t.Errorf("restore from epoch %d processed %d samples, want %d", cp.Epoch, res.SamplesProcessed, epochs*pathItems)
			}
		}
	}

	// Run hands every epoch back to the producers, the parked leg's
	// prefetched and in-flight samples included.
	for _, p := range producers {
		if st := p.OutputStats(); st.Gets != st.Puts {
			t.Errorf("%T handed out %d output buffers and got %d back", p, st.Gets, st.Puts)
		}
	}
	var deviceGets int64
	for _, h := range devices {
		deviceGets += h.OutputStats().Gets
	}
	if len(devices) > 0 && deviceGets == 0 {
		t.Error("no device prepared into its output frames")
	}

	// Whether device 0 strikes out before the run ends depends on how
	// the dispatcher spreads samples, so the counters must match what
	// its injector saw: one retry per fault, one ejection per strike-out.
	n := reg.Snapshot().Counters
	hostKeys, dev := pathItems, "fpga.pool."
	switch c.place {
	case "cluster":
		if a := cluster.ActiveDevices(); n[dev+"jobs_dispatched"] == 0 || a != pathDevices-int(ledger.ejected) {
			t.Errorf("%d samples dispatched and %d devices active, want some and %d", n[dev+"jobs_dispatched"], a, pathDevices-ledger.ejected)
		}
	case "pool":
		hostKeys, dev = int(perEpoch[1]), "fpga.pool.cell."
		if p, h := n["preppool.job.cell.pooled_samples"], n["preppool.job.cell.inbox_samples"]; p == 0 || h == 0 {
			t.Errorf("%d pooled and %d in-box samples, want both halves used", p, h)
		}
		// The struck-out device is retired, at an epoch boundary or at
		// Close; the rest are free.
		if r, free := n["preppool.pool.retired_devices"], pool.FreeDevices(); r != ledger.ejected || free != pathDevices-int(r) {
			t.Errorf("%d devices retired and %d free after Close, want %d retired", r, free, ledger.ejected)
		}
	}
	if e, r := n[dev+"devices_ejected"], n[dev+"sample_retries"]; e != ledger.ejected || r != ledger.faults {
		t.Errorf("%d ejections and %d retries, want %d and the %d faults device 0 injected", e, r, ledger.ejected, ledger.faults)
	}
	struckOut = ledger.ejected == 1
	if cache == nil {
		return struckOut
	}
	// On the pool, degraded samples of the pooled half join the cache
	// too, so it may hold more keys than the host half. A budget of two
	// decodes against a cyclic scan of four or eight keys hits only
	// because each epoch prepares its resident keys first.
	if s := cache.Stats(); c.cache == "ample" && (s.Evictions != 0 || s.Misses != s.Entries ||
		s.Entries < int64(hostKeys) || s.Hits < int64(hostKeys*(pathEpochs-1))) {
		t.Errorf("ample cache %+v: want every key decoded once and ≥ %d hits", s, hostKeys*(pathEpochs-1))
	} else if c.cache == "evicting" && (s.Evictions == 0 || s.Hits == 0) {
		t.Errorf("evicting cache %+v: want evictions and resident-first hits", s)
	}
	return struckOut
}

// TestTrainingPathsAgree runs the 63 cells: 21 path combinations at 1,
// 2 and 4 replicas, each against the host oracle at its replica count.
// A device that dies after three reads always strikes out within the
// run, so every death cell must eject it.
func TestTrainingPathsAgree(t *testing.T) {
	d := newPathData(t, 5)
	for _, r := range []int{1, 2, 4} {
		want := d.reference(t, r)
		for _, c := range pathCells() {
			c.replicas = r
			t.Run(c.String(), func(t *testing.T) {
				invariant.NoLeak(t)
				if !runCell(t, d, c, want) && c.intr == "death" {
					t.Error("device 0 never struck out")
				}
			})
		}
	}
}

// FuzzTrainingPathsAgree draws a cell, the dataset seed, the boundary a
// suspended run parks at and the read after which a flaky device dies.
func FuzzTrainingPathsAgree(f *testing.F) {
	f.Add(uint8(17), uint8(2), int64(5), uint8(1), uint8(2))  // pool-evicting-death-r4
	f.Add(uint8(4), uint8(0), int64(-3), uint8(0), uint8(0))  // host-evicting-none-r1
	f.Add(uint8(16), uint8(1), int64(11), uint8(0), uint8(5)) // pool-evicting-suspend-r2
	f.Add(uint8(8), uint8(1), int64(7), uint8(4), uint8(3))   // cluster-uncached-death-r2
	f.Add(uint8(8), uint8(2), int64(5), uint8(0), uint8(5))   // cluster-uncached-death-r4, death at 6
	f.Add(uint8(19), uint8(1), int64(3), uint8(0), uint8(0))  // pool-ample-preempt-r2, parked at 0
	f.Fuzz(func(t *testing.T, cell, replicas uint8, seed int64, suspendAt, deathAt uint8) {
		invariant.NoLeak(t)
		cells := pathCells()
		c := cells[int(cell)%len(cells)]
		c.replicas = []int{1, 2, 4}[replicas%3]
		c.suspendAt = int(suspendAt) % (pathEpochs - 1)
		c.deathAt = 1 + int64(deathAt)%maxDeathAt
		t.Logf("cell %v, dataset seed %d, suspend at %d, death at %d", c, seed, c.suspendAt, c.deathAt)
		d := newPathData(t, seed)
		runCell(t, d, c, d.reference(t, c.replicas))
	})
}
