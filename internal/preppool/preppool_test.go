package preppool

import (
	"context"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/eth"
	"trainbox/internal/faults"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/storage"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// fixture builds one shared dataset store plus n pool devices over it,
// handler i wired to injs[i] when given (nil = healthy).
func fixture(t *testing.T, devices int, injs ...faults.Injector) ([]*fpga.P2PHandler, *storage.Store, dataprep.ImageConfig) {
	t.Helper()
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, 8, 4, 3); err != nil {
		t.Fatal(err)
	}
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataprep.DefaultImageConfig()
	handlers := make([]*fpga.P2PHandler, devices)
	for i := range handlers {
		var opts []fpga.Option
		if i < len(injs) && injs[i] != nil {
			opts = append(opts, fpga.WithFaults(injs[i]))
		}
		h, err := fpga.NewP2PHandler(ns, fpga.NewImageEmulator(cfg), 8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = h
	}
	return handlers, store, cfg
}

func spec(name string, cfg dataprep.ImageConfig, store *storage.Store, seed int64, required, inBox units.SamplesPerSec) JobSpec {
	return JobSpec{
		Name:         name,
		Type:         workload.Image,
		RequiredRate: required,
		InBoxRate:    inBox,
		Exec:         dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, seed),
		Store:        store,
		DatasetSeed:  seed,
	}
}

// leases reads the job's pooled device count from the pool's status
// report; -1 means the job is not registered. It takes no *testing.T,
// so preparers running on pipeline goroutines can call it too.
func leases(j *Job) int {
	for _, s := range j.pool.Stats() {
		if s.Name == j.spec.Name {
			return s.Leases
		}
	}
	return -1
}

// oracle prepares the epoch on a fresh fault-free host executor.
func oracle(t *testing.T, cfg dataprep.ImageConfig, store *storage.Store, seed int64, keys []string, epoch int) []dataprep.Prepared {
	t.Helper()
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, seed)
	out, err := exec.PrepareBatch(store, keys, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertBitIdentical(t *testing.T, got, want []dataprep.Prepared) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("sample %d key %q, want %q — split broke ordering", i, got[i].Key, want[i].Key)
		}
		for j := range want[i].Image.Data {
			if got[i].Image.Data[j] != want[i].Image.Data[j] {
				t.Fatalf("sample %d diverges at element %d — pooled split not bit-identical", i, j)
			}
		}
	}
}

// TestRebalanceMigratesLeasesOnDemandCrossover: two jobs whose demand
// crosses over mid-run. The rebalancer must reclaim the lease from the
// job whose demand dropped and migrate it to the one whose demand rose,
// with every epoch of both jobs bit-identical to its host oracle.
func TestRebalanceMigratesLeasesOnDemandCrossover(t *testing.T) {
	handlers, store, cfg := fixture(t, 3)
	reg := metrics.NewRegistry()
	pool, err := NewPool(handlers, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	// A needs 2 pool FPGAs, B needs 1 (image rate 8000/device).
	jobA, err := pool.Register(spec("job-a", cfg, store, 3, 16000, 0))
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := pool.Register(spec("job-b", cfg, store, 7, 8000, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()

	runEpoch := func(j *Job, seed int64, epoch int) {
		t.Helper()
		out, err := j.PrepareEpoch(context.Background(), keys, epoch)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, out, oracle(t, cfg, store, seed, keys, epoch))
	}
	runEpoch(jobA, 3, 0)
	runEpoch(jobB, 7, 0)
	if a, b := leases(jobA), leases(jobB); a != 2 || b != 1 {
		t.Fatalf("initial leases a=%d b=%d, want 2/1", a, b)
	}
	if pool.Migrations() != 0 {
		t.Fatalf("migrations before crossover = %d, want 0", pool.Migrations())
	}

	// Demand crossover: A cools to 1 device of need, B heats to 2.
	if err := jobA.SetRequiredRate(8000); err != nil {
		t.Fatal(err)
	}
	if err := jobB.SetRequiredRate(16000); err != nil {
		t.Fatal(err)
	}
	runEpoch(jobA, 3, 1) // A's boundary: surplus lease reclaimed
	runEpoch(jobB, 7, 1) // B's boundary: reclaimed lease migrates to B
	if a, b := leases(jobA), leases(jobB); a != 1 || b != 2 {
		t.Fatalf("post-crossover leases a=%d b=%d, want 1/2", a, b)
	}
	if pool.Migrations() < 1 {
		t.Error("no lease migration recorded across the crossover")
	}
	if got := reg.Snapshot().Counters["preppool.pool.migrations"]; got < 1 {
		t.Errorf("preppool.pool.migrations = %d, want ≥ 1", got)
	}
	runEpoch(jobA, 3, 2)
	runEpoch(jobB, 7, 2)
}

// TestReclaimOverProvisionedJob: a job whose demand drops to zero must
// give every lease back to the free pool at its next epoch boundary.
func TestReclaimOverProvisionedJob(t *testing.T) {
	handlers, store, cfg := fixture(t, 2)
	pool, err := NewPool(handlers)
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("greedy", cfg, store, 3, 16000, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()
	if _, err := job.PrepareEpoch(context.Background(), keys, 0); err != nil {
		t.Fatal(err)
	}
	if leases(job) != 2 || pool.FreeDevices() != 0 {
		t.Fatalf("leases=%d free=%d, want 2/0", leases(job), pool.FreeDevices())
	}
	if err := job.SetRequiredRate(0); err != nil {
		t.Fatal(err)
	}
	out, err := job.PrepareEpoch(context.Background(), keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, oracle(t, cfg, store, 3, keys, 1))
	if leases(job) != 0 || pool.FreeDevices() != 2 {
		t.Errorf("leases=%d free=%d after demand dropped, want 0/2", leases(job), pool.FreeDevices())
	}
}

// TestEthernetBudgetCapsGrants: a pool behind a constrained fabric must
// stop granting leases at the reservation ceiling — the job still
// completes (host path covers the rest), it just gets fewer devices.
func TestEthernetBudgetCapsGrants(t *testing.T) {
	handlers, store, cfg := fixture(t, 2)
	// 10 GB/s aggregate; each image lease needs 8000 samples/s × 1 MiB ≈
	// 8.4 GB/s, so the fabric carries exactly one lease.
	net, err := eth.NewNetwork(eth.Link100G, eth.SwitchSpec{Ports: 4, AggregateBandwidth: 10 * units.GBps})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(handlers, WithNetwork(net, units.MB))
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("capped", cfg, store, 3, 16000, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()
	out, err := job.PrepareEpoch(context.Background(), keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, oracle(t, cfg, store, 3, keys, 0))
	if got := leases(job); got != 1 {
		t.Errorf("leases = %d under a one-lease fabric budget, want 1", got)
	}
	if net.Reserved() == 0 {
		t.Error("granted lease holds no fabric reservation")
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if got := net.Reserved(); got != 0 {
		t.Errorf("reserved = %v after close, want 0 (reservations must be returned)", got)
	}
	if pool.FreeDevices() != 2 {
		t.Errorf("free = %d after close, want 2", pool.FreeDevices())
	}
}

// TestDeviceDeathRetiresAndRebalances: a leased device dies during an
// epoch. The epoch must complete bit-identical to the oracle (health
// layer re-dispatches), and the next epoch boundary must retire the
// corpse and grant a replacement from spare pool capacity — the re-run
// rebalance, not host fallback, absorbing the death.
func TestDeviceDeathRetiresAndRebalances(t *testing.T) {
	// Device 0 fails every read, so it strikes out in epoch 0 however
	// the dispatcher splits the 8 keys between the two leases (a budget
	// of a few reads may outlast the epoch); device 2 is the idle spare.
	handlers, store, cfg := fixture(t, 3, faults.NewDeviceDeath(0))
	reg := metrics.NewRegistry()
	pool, err := NewPool(handlers, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("victim", cfg, store, 3, 16000, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()

	out, err := job.PrepareEpoch(context.Background(), keys, 0)
	if err != nil {
		t.Fatalf("epoch with mid-run device death failed: %v", err)
	}
	assertBitIdentical(t, out, oracle(t, cfg, store, 3, keys, 0))
	if got := leases(job); got != 2 {
		t.Fatalf("leases = %d before the reap, want 2", got)
	}

	// Next boundary: corpse retired, spare granted, capacity restored.
	out, err = job.PrepareEpoch(context.Background(), keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, oracle(t, cfg, store, 3, keys, 1))
	if got := leases(job); got != 2 {
		t.Errorf("leases = %d after rebalance, want 2 (spare must replace the corpse)", got)
	}
	if pool.FreeDevices() != 0 {
		t.Errorf("free = %d, want 0", pool.FreeDevices())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["preppool.pool.retired_devices"]; got != 1 {
		t.Errorf("retired_devices = %d, want 1", got)
	}
	if got := snap.Counters["fpga.pool.victim.devices_ejected"]; got != 1 {
		t.Errorf("victim cluster ejections = %d, want 1", got)
	}
}

// TestCloseRetiresDeadDevice: a device that dies in a job's last epoch
// is retired by Close, not handed to the next job, which would pay
// three strikes of retries to eject it again.
func TestCloseRetiresDeadDevice(t *testing.T) {
	handlers, store, cfg := fixture(t, 3, faults.NewDeviceDeath(0))
	reg := metrics.NewRegistry()
	pool, err := NewPool(handlers, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("first", cfg, store, 3, 16000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.PrepareEpoch(context.Background(), store.Keys(), 0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fpga.pool.first.devices_ejected").Value(); got != 1 {
		t.Fatalf("first job ejected %d devices, want 1", got)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := pool.FreeDevices(), len(handlers)-1; got != want {
		t.Errorf("free = %d after close, want %d (the dead device must leave the pool)", got, want)
	}
	if got := reg.Counter("preppool.pool.retired_devices").Value(); got != 1 {
		t.Errorf("retired_devices = %d, want 1", got)
	}

	// A job asking for every device gets only the survivors.
	next, err := pool.Register(spec("second", cfg, store, 3, 24000, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()
	out, err := next.PrepareEpoch(context.Background(), keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, oracle(t, cfg, store, 3, keys, 0))
	snap := reg.Snapshot()
	if e, r := snap.Counters["fpga.pool.second.devices_ejected"], snap.Counters["fpga.pool.second.sample_retries"]; e != 0 || r != 0 {
		t.Errorf("second job: %d ejections and %d retries, want 0 and 0", e, r)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterValidation: bad job specs are rejected before touching
// pool state.
func TestRegisterValidation(t *testing.T) {
	handlers, store, cfg := fixture(t, 1)
	pool, err := NewPool(handlers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Register(spec("Bad Name", cfg, store, 3, 8000, 0)); err == nil {
		t.Error("invalid job name accepted")
	}
	if _, err := pool.Register(JobSpec{Name: "nohost", Type: workload.Image, RequiredRate: 1}); err == nil {
		t.Error("job without host path accepted")
	}
	if _, err := pool.Register(spec("ok", cfg, store, 3, 8000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Register(spec("ok", cfg, store, 3, 8000, 0)); err == nil {
		t.Error("duplicate job name accepted")
	}
	if _, err := NewPool([]*fpga.P2PHandler{nil}); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := NewPool(nil, WithNetwork(nil, units.MB)); err == nil {
		t.Error("nil network accepted")
	}
}

// TestCloseReturnsAllLeases: closing a job that holds several leases
// must release every one back to the free pool. Regression test: Close
// used to range over j.order while releasing shifted entries out from
// under the iteration, so a 3-lease job failed with a spurious "does
// not hold that device" error and leaked a lease.
func TestCloseReturnsAllLeases(t *testing.T) {
	handlers, store, cfg := fixture(t, 3)
	pool, err := NewPool(handlers)
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("hog", cfg, store, 3, 24000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.PrepareEpoch(context.Background(), store.Keys(), 0); err != nil {
		t.Fatal(err)
	}
	if got := leases(job); got != 3 {
		t.Fatalf("leases = %d before close, want 3", got)
	}
	if err := job.Close(); err != nil {
		t.Fatalf("close with 3 leases failed: %v", err)
	}
	if got := pool.FreeDevices(); got != 3 {
		t.Errorf("free = %d after close, want 3 (all leases returned)", got)
	}
}

// TestDuplicateRegisterKeepsLiveJobMetrics: a rejected duplicate
// registration must not touch the live same-named job's metrics.
// Regression test: Register used to bind and set the required_rate
// gauge before the uniqueness check, so the rejected spec's rate
// overwrote the live job's.
func TestDuplicateRegisterKeepsLiveJobMetrics(t *testing.T) {
	handlers, store, cfg := fixture(t, 1)
	reg := metrics.NewRegistry()
	pool, err := NewPool(handlers, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Register(spec("twin", cfg, store, 3, 8000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Register(spec("twin", cfg, store, 3, 999, 0)); err == nil {
		t.Fatal("duplicate job name accepted")
	}
	if got := reg.Snapshot().Gauges["preppool.job.twin.required_rate"]; got != 8000 {
		t.Errorf("required_rate = %v after rejected duplicate, want 8000", got)
	}
}

// TestClosedJobRefusesEpochs: a closed job must fail fast, and closing
// twice is an error.
func TestClosedJobRefusesEpochs(t *testing.T) {
	handlers, store, cfg := fixture(t, 1)
	pool, err := NewPool(handlers)
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("gone", cfg, store, 3, 8000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err == nil {
		t.Error("double close accepted")
	}
	if _, err := job.PrepareEpoch(context.Background(), store.Keys(), 0); err == nil {
		t.Error("closed job prepared an epoch")
	}
}

// TestPriorityTiersStarveLowerTierUnderContention: with the pool too
// small for both jobs, a higher-priority job's deficit must be fully
// covered before the lower tier sees a single device; when the
// high-priority job's demand cools, the freed devices flow down.
func TestPriorityTiersStarveLowerTierUnderContention(t *testing.T) {
	handlers, store, cfg := fixture(t, 3)
	pool, err := NewPool(handlers)
	if err != nil {
		t.Fatal(err)
	}
	hiSpec := spec("hi", cfg, store, 3, 24000, 0) // 3 devices of need
	hiSpec.Priority = 1
	hi, err := pool.Register(hiSpec)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := pool.Register(spec("lo", cfg, store, 7, 24000, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()
	ctx := context.Background()
	for _, j := range []*Job{hi, lo} {
		if _, err := j.PrepareEpoch(ctx, keys, 0); err != nil {
			t.Fatal(err)
		}
	}
	if h, l := leases(hi), leases(lo); h != 3 || l != 0 {
		t.Fatalf("contended leases hi=%d lo=%d, want 3/0 (strict tiers)", h, l)
	}

	// The high tier cools to one device of need; the lower tier must
	// pick up the two freed devices at the next boundaries.
	if err := hi.SetRequiredRate(8000); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{hi, lo} {
		if _, err := j.PrepareEpoch(ctx, keys, 1); err != nil {
			t.Fatal(err)
		}
	}
	if h, l := leases(hi), leases(lo); h != 1 || l != 2 {
		t.Fatalf("post-cooldown leases hi=%d lo=%d, want 1/2", h, l)
	}

	// Equal tiers split the same contention max-min instead.
	if err := hi.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lo.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := pool.Register(spec("eq-a", cfg, store, 3, 24000, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Register(spec("eq-b", cfg, store, 7, 24000, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{a, b} {
		if _, err := j.PrepareEpoch(ctx, keys, 0); err != nil {
			t.Fatal(err)
		}
	}
	if x, y := leases(a), leases(b); x+y != 3 || x == 0 || y == 0 {
		t.Fatalf("equal-tier leases a=%d b=%d, want a 2/1-ish split of 3", x, y)
	}
}
