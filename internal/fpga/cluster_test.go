package fpga

import (
	"context"
	"errors"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/invariant"
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
	cluster, store, cfg := poolFixture(t, 3)
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
	stats := cluster.Stats()
	if len(stats) != 1 || stats[0].Name != "pool-dispatch" || stats[0].Parallelism != 3 {
		t.Fatalf("cluster stats = %+v", stats)
	}
	if stats[0].ItemsOut != int64(len(host)) {
		t.Errorf("dispatch delivered %d samples, want %d", stats[0].ItemsOut, len(host))
	}
}

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
	cluster, store, _ := poolFixture(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cluster.PrepareBatch(ctx, store.Keys(), 1, 0); err == nil {
		t.Error("cancelled p2p batch succeeded")
	}
	// A fresh batch afterwards still works and records stage stats. The
	// cancelled batch may have dispatched a sample before it noticed, so
	// the fresh batch's share is the growth of the cumulative count.
	var before int64
	if stats := cluster.Stats(); len(stats) == 1 {
		before = stats[0].ItemsOut
	}
	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), 1, 0)
	if err != nil || len(out) != store.Len() {
		t.Fatalf("post-cancel batch: %v (%d samples)", err, len(out))
	}
	stats := cluster.Stats()
	if len(stats) != 1 || stats[0].Name != "pool-dispatch" || stats[0].ItemsOut-before != int64(len(out)) {
		t.Fatalf("cluster stats = %+v, want %d more samples out than the %d before", stats, len(out), before)
	}
}
