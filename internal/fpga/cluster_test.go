package fpga

import (
	"context"
	"errors"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/invariant"
	"trainbox/internal/metrics"
	"trainbox/internal/storage"
)

// newCluster builds a cluster over handlers, failing the test on error.
func newCluster(t *testing.T, handlers []*P2PHandler, opts ...Option) *Cluster {
	t.Helper()
	cluster, err := NewCluster(handlers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

func poolFixture(t *testing.T, devices int) (*Cluster, *storage.Store, dataprep.ImageConfig) {
	t.Helper()
	handlers, store, cfg := leaseFixture(t, devices)
	return newCluster(t, handlers), store, cfg
}

// TestClusterBitEqualWithHostPath: dispatching a batch across three
// pooled devices must be bit-identical to the host executor — the
// transparency property that lets the scheduler hand any job's deficit
// to any pool device.
func TestClusterBitEqualWithHostPath(t *testing.T) {
	handlers, store, cfg := leaseFixture(t, 3)
	reg := metrics.NewRegistry()
	cluster := newCluster(t, handlers, WithMetrics(reg))
	const datasetSeed, epoch = 3, 1

	pooled, err := cluster.PrepareBatch(context.Background(), store.Keys(), datasetSeed, epoch)
	if err != nil {
		t.Fatal(err)
	}
	hostExec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, datasetSeed)
	host, err := hostExec.PrepareBatch(store, store.Keys(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled) != len(host) {
		t.Fatalf("batch sizes differ: %d vs %d", len(pooled), len(host))
	}
	for i := range host {
		if pooled[i].Key != host[i].Key {
			t.Fatalf("sample %d key %q, want %q — pool dispatch broke ordering", i, pooled[i].Key, host[i].Key)
		}
		for j := range host[i].Image.Data {
			if pooled[i].Image.Data[j] != host[i].Image.Data[j] {
				t.Fatalf("sample %d diverges at element %d — pool offload not transparent", i, j)
			}
		}
	}
	if got := reg.Counter(dispatchItems).Value(); got != int64(len(host)) {
		t.Errorf("dispatch delivered %d samples, want %d", got, len(host))
	}
}

// dispatchItems is an unnamed cluster's dispatch-stage item count.
const dispatchItems = "pipeline.fpga-pool.pool-dispatch.items"

func TestClusterErrorsAndValidation(t *testing.T) {
	if _, err := NewCluster(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := NewCluster([]*P2PHandler{nil}); err == nil {
		t.Error("nil handler accepted")
	}
	cluster, _, _ := poolFixture(t, 2)
	invariant.NoLeak(t)
	if _, err := cluster.PrepareBatch(context.Background(), []string{"img-00000", "missing"}, 1, 0); err == nil {
		t.Error("batch with missing key accepted")
	}
	// All devices must be back in the pool after the failure.
	if got := len(cluster.avail); got != cluster.Devices() {
		t.Errorf("%d of %d devices returned to pool", got, cluster.Devices())
	}
}

func TestClusterCancelledContext(t *testing.T) {
	cluster, store, _ := poolFixture(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cluster.PrepareBatch(ctx, store.Keys(), 1, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch: err = %v, want context.Canceled", err)
	}
}

// TestP2PBatchContextCancellation: a batch over one P2P handler must
// honour cancellation and leave the handler usable for the next batch.
func TestP2PBatchContextCancellation(t *testing.T) {
	handlers, store, _ := leaseFixture(t, 1)
	reg := metrics.NewRegistry()
	cluster := newCluster(t, handlers, WithMetrics(reg))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cluster.PrepareBatch(ctx, store.Keys(), 1, 0); err == nil {
		t.Error("cancelled p2p batch succeeded")
	}
	// A fresh batch afterwards still works and counts its dispatches.
	// The cancelled batch may have dispatched a sample before it
	// noticed, so the fresh batch's share is the growth of the count.
	before := reg.Counter(dispatchItems).Value()
	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), 1, 0)
	if err != nil || len(out) != store.Len() {
		t.Fatalf("post-cancel batch: %v (%d samples)", err, len(out))
	}
	if got := reg.Counter(dispatchItems).Value() - before; got != int64(len(out)) {
		t.Fatalf("dispatch items grew by %d, want %d", got, len(out))
	}
}
