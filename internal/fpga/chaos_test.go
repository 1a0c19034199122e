package fpga

import (
	"context"
	"errors"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/metrics"
	"trainbox/internal/storage"
)

// chaosFixture builds len(injs) device handlers, handler i wired to
// injector injs[i] (nil = healthy), over a small image dataset.
func chaosFixture(t *testing.T, injs ...faults.Injector) ([]*P2PHandler, *storage.Store, dataprep.ImageConfig) {
	t.Helper()
	handlers, store, cfg := leaseFixture(t, len(injs))
	for i, h := range handlers {
		h.inj = injs[i]
	}
	return handlers, store, cfg
}

// hostOracle prepares the same batch on the fault-free host path.
func hostOracle(t *testing.T, store *storage.Store, cfg dataprep.ImageConfig, datasetSeed int64, epoch int) []dataprep.Prepared {
	t.Helper()
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, datasetSeed)
	host, err := exec.PrepareBatch(store, store.Keys(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	return host
}

func assertBitIdentical(t *testing.T, got, want []dataprep.Prepared) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("sample %d key %q, want %q — ordering broken", i, got[i].Key, want[i].Key)
		}
		for j := range want[i].Image.Data {
			if got[i].Image.Data[j] != want[i].Image.Data[j] {
				t.Fatalf("sample %d diverges at element %d — degraded path not bit-identical", i, j)
			}
		}
	}
}

// TestClusterEjectsDeadDeviceAndStaysBitIdentical: one device dead on
// arrival must be ejected after three strikes while its samples are
// re-dispatched to the survivor, and the delivered batch must still be
// bit-identical to the host oracle.
func TestClusterEjectsDeadDeviceAndStaysBitIdentical(t *testing.T) {
	const datasetSeed, epoch = 3, 1
	handlers, store, cfg := chaosFixture(t, faults.NewDeviceDeath(0), nil)
	reg := metrics.NewRegistry()
	cluster := newCluster(t, handlers, WithMetrics(reg))

	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, hostOracle(t, store, cfg, datasetSeed, epoch))
	if got := reg.Counter("fpga.pool.devices_ejected").Value(); got != 1 {
		t.Errorf("devices_ejected = %d, want 1", got)
	}
	if reg.Counter("fpga.pool.sample_retries").Value() == 0 {
		t.Error("no sample retries recorded for re-dispatched samples")
	}
	if got := cluster.ActiveDevices(); got != 1 {
		t.Errorf("active devices = %d, want 1", got)
	}
	if got := reg.Gauge("fpga.pool.devices_active").Value(); got != 1 {
		t.Errorf("devices_active gauge = %v, want 1", got)
	}
}

// injectorFunc adapts a function to faults.Injector.
type injectorFunc func(faults.Op) faults.Fault

func (f injectorFunc) Inject(op faults.Op) faults.Fault { return f(op) }

// TestClusterSampleOutlastsDyingDevice replays the interleaving that
// made the test above flaky: another sample holds the live device while
// this one draws the dead device on consecutive attempts — strikes 1
// and 2 return it to the pool, strike 3 ejects it. The sample must then
// wait for the live device instead of failing with no fallback attached.
func TestClusterSampleOutlastsDyingDevice(t *testing.T) {
	const datasetSeed, epoch = 3, 1
	var (
		cluster *Cluster
		live    *device
		strikes int
		death   = faults.NewDeviceDeath(0)
	)
	dying := injectorFunc(func(op faults.Op) faults.Fault {
		if strikes++; strikes == ejectAfter {
			cluster.release(live, true) // the other sample finishes mid-attempt
		}
		return death.Inject(op)
	})
	handlers, store, cfg := chaosFixture(t, dying, nil)
	cluster = newCluster(t, handlers)

	// The pool hands devices out in order: park the dead one behind the
	// live one, then check the live one out as a concurrent sample would.
	ctx := context.Background()
	dead, _, _ := cluster.acquire(ctx)
	cluster.release(dead, true)
	live, _, _ = cluster.acquire(ctx)
	if live.h != handlers[1] {
		t.Fatal("fixture: expected to hold the healthy device")
	}

	got, err := cluster.prepareSample(ctx, store.Keys()[0], datasetSeed, epoch)
	if err != nil {
		t.Fatalf("sample failed with a healthy device in the pool: %v", err)
	}
	if strikes != ejectAfter || cluster.ActiveDevices() != 1 {
		t.Fatalf("strikes = %d, active devices = %d; want %d and 1", strikes, cluster.ActiveDevices(), ejectAfter)
	}
	assertBitIdentical(t, []dataprep.Prepared{got}, hostOracle(t, store, cfg, datasetSeed, epoch)[:1])
}

// TestClusterFallbackWhenAllDevicesDead: with every device dead and a
// host fallback attached, the whole batch must degrade to the host path
// — bit-identical, all samples counted as degraded, pool size zero.
func TestClusterFallbackWhenAllDevicesDead(t *testing.T) {
	const datasetSeed, epoch = 5, 2
	handlers, store, cfg := chaosFixture(t, faults.NewDeviceDeath(0), faults.NewDeviceDeath(0))
	reg := metrics.NewRegistry()
	fb := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 0)
	cluster := newCluster(t, handlers, WithFallback(fb, store), WithMetrics(reg))

	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, hostOracle(t, store, cfg, datasetSeed, epoch))
	if got := reg.Counter("fpga.pool.devices_ejected").Value(); got != 2 {
		t.Errorf("devices_ejected = %d, want 2", got)
	}
	if got := reg.Counter("fpga.pool.degraded_samples").Value(); got != int64(len(store.Keys())) {
		t.Errorf("degraded_samples = %d, want %d", got, len(store.Keys()))
	}
	if got := cluster.ActiveDevices(); got != 0 {
		t.Errorf("active devices = %d, want 0", got)
	}
}

// TestClusterPoolEmptyWithoutFallbackFails: with no host fallback, an
// all-dead pool must fail the batch with the device error.
func TestClusterPoolEmptyWithoutFallbackFails(t *testing.T) {
	handlers, store, _ := chaosFixture(t, faults.NewDeviceDeath(0))
	cluster := newCluster(t, handlers)
	if _, err := cluster.PrepareBatch(context.Background(), store.Keys(), 1, 0); !errors.Is(err, faults.ErrDeviceDead) {
		t.Errorf("err = %v, want ErrDeviceDead", err)
	}
}

// TestClusterFlakyDeviceRecovers: a pool where every device drops a
// deterministic fraction of reads must still deliver bit-identical
// batches via re-dispatch (and, at worst, the host fallback).
func TestClusterFlakyDeviceRecovers(t *testing.T) {
	const datasetSeed, epoch = 7, 0
	// Both devices share the flake schedule, so whichever device serves a
	// doomed (key, attempt) pair fails it — making retries deterministic.
	flake := faults.NewErrorRate(42, 0.4, nil)
	handlers, store, cfg := chaosFixture(t, flake, flake)
	reg := metrics.NewRegistry()
	fb := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 0)
	cluster := newCluster(t, handlers, WithFallback(fb, store), WithMetrics(reg))

	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, hostOracle(t, store, cfg, datasetSeed, epoch))
	if reg.Counter("fpga.pool.sample_retries").Value() == 0 {
		t.Error("flaky pool recorded no sample retries")
	}
}
