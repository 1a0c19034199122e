package fpga

import (
	"context"
	"strings"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/storage"
)

// leaseFixture builds n standalone handlers over one small image
// dataset, without binding them to a cluster.
func leaseFixture(t *testing.T, n int, opts ...Option) ([]*P2PHandler, *storage.Store, dataprep.ImageConfig) {
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
	handlers := make([]*P2PHandler, n)
	for i := range handlers {
		h, err := NewP2PHandler(ns, NewImageEmulator(cfg), 8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = h
	}
	return handlers, store, cfg
}

// TestClusterOptionsAPI: the functional-options constructor must wire
// fallback, metrics, name scoping, and pool-wide faults in one call.
func TestClusterOptionsAPI(t *testing.T) {
	handlers, store, cfg := leaseFixture(t, 2)
	reg := metrics.NewRegistry()
	fb := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 0)
	cluster, err := NewCluster(handlers,
		WithName("jobA"),
		WithFallback(fb, store),
		WithMetrics(reg),
		WithFaults(faults.NewDeviceDeath(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(store.Keys()) {
		t.Fatalf("batch delivered %d samples, want %d", len(out), len(store.Keys()))
	}
	snap := reg.Snapshot()
	// WithFaults killed both devices, health tracking ejected them,
	// WithFallback served the batch — all under the WithName-scoped
	// namespace.
	if got := snap.Counters["fpga.pool.jobA.devices_ejected"]; got != 2 {
		t.Errorf("fpga.pool.jobA.devices_ejected = %d, want 2", got)
	}
	if got := snap.Counters["fpga.pool.jobA.degraded_samples"]; got != int64(len(store.Keys())) {
		t.Errorf("fpga.pool.jobA.degraded_samples = %d, want %d", got, len(store.Keys()))
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "fpga.pool.") && !strings.HasPrefix(name, "fpga.pool.jobA.") {
			t.Errorf("unscoped pool metric %q leaked from a named cluster", name)
		}
	}
	if _, ok := snap.Counters["pipeline.fpga-pool-jobA.pool-dispatch.items"]; !ok {
		t.Error("named cluster's dispatch pipeline not scoped as fpga-pool-jobA")
	}
}

// TestHandlerOptionsAPI: NewP2PHandler must accept the shared options,
// and a cluster-only option must fail handler construction loudly.
func TestHandlerOptionsAPI(t *testing.T) {
	reg := metrics.NewRegistry()
	handlers, store, _ := leaseFixture(t, 1, WithMetrics(reg), WithFaults(faults.NewDeviceDeath(2)))
	h := handlers[0]
	keys := store.Keys()
	for i, key := range keys[:3] {
		p := h.prepareSample(context.Background(), key, dataprep.SampleSeed(3, key, 0), 0)
		if i < 2 && p.Err != nil {
			t.Fatalf("sample %d within the device budget failed: %v", i, p.Err)
		}
		if i == 2 && p.Err == nil {
			t.Fatal("sample past the WithFaults device budget succeeded")
		}
	}
	if got := reg.Counter("fpga.p2p.samples_prepared").Value(); got != 2 {
		t.Errorf("samples_prepared = %d, want 2 before the device died", got)
	}

	store2 := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store2, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	ns, err := nvme.LoadStore(store2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewP2PHandler(ns, NewImageEmulator(dataprep.DefaultImageConfig()), 4,
		WithName("jobA")); err == nil {
		t.Error("cluster-only option accepted by NewP2PHandler")
	}
	if _, err := NewCluster(handlers, WithFallback(nil, nil)); err == nil {
		t.Error("WithFallback with nil executor accepted")
	}
}

// TestClusterLeaseRelease: the membership seam the prep-pool runtime
// migrates devices through — leases grow the pool, releases shrink it,
// and batches stay bit-identical across membership changes.
func TestClusterLeaseRelease(t *testing.T) {
	const datasetSeed, epoch = 3, 1
	handlers, store, cfg := leaseFixture(t, 3)
	cluster, err := NewCluster(handlers[:1])
	if err != nil {
		t.Fatal(err)
	}
	hostExec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, datasetSeed)
	want, err := hostExec.PrepareBatch(store, store.Keys(), epoch)
	if err != nil {
		t.Fatal(err)
	}

	if err := cluster.Lease(handlers[1]); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Lease(handlers[2]); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Lease(handlers[1]); err == nil {
		t.Error("double lease of one handler accepted")
	}
	if err := cluster.Lease(nil); err == nil {
		t.Error("nil lease accepted")
	}
	if got := cluster.Devices(); got != 3 {
		t.Fatalf("devices = %d after leases, want 3", got)
	}
	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, want)

	if err := cluster.Release(handlers[0]); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Release(handlers[0]); err == nil {
		t.Error("double release accepted")
	}
	if got := cluster.ActiveDevices(); got != 2 {
		t.Fatalf("active devices = %d after release, want 2", got)
	}
	out, err = cluster.PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, want)

	// The released handler is free to serve another cluster.
	other, err := NewCluster([]*P2PHandler{handlers[0]})
	if err != nil {
		t.Fatal(err)
	}
	out, err = other.PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, want)
}

// TestClusterZeroDevicesWithFallback: a cluster may start empty when a
// host fallback is armed — the prep-pool's shape for a job holding no
// leases — and every sample degrades to the (bit-identical) host path.
func TestClusterZeroDevicesWithFallback(t *testing.T) {
	const datasetSeed, epoch = 9, 0
	_, store, cfg := leaseFixture(t, 0)
	reg := metrics.NewRegistry()
	fb := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 0)
	cluster, err := NewCluster(nil, WithFallback(fb, store), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	hostExec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, datasetSeed)
	want, err := hostExec.PrepareBatch(store, store.Keys(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, want)
	if got := reg.Counter("fpga.pool.degraded_samples").Value(); got != int64(len(store.Keys())) {
		t.Errorf("degraded_samples = %d, want %d", got, len(store.Keys()))
	}
}
