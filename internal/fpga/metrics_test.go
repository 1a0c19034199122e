package fpga

import (
	"context"
	"testing"

	"trainbox/internal/metrics"
)

// TestClusterMetrics: a metered pool must count dispatched jobs, report
// per-device utilization gauges in (0, 1], and stream the dispatch
// pipeline's stage series.
func TestClusterMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	handlers, store, _ := leaseFixture(t, 2, WithMetrics(reg))
	cluster := newCluster(t, handlers, WithMetrics(reg))
	keys := store.Keys()

	const epochs = 2
	for epoch := 0; epoch < epochs; epoch++ {
		if _, err := cluster.PrepareBatch(context.Background(), keys, 3, epoch); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	wantJobs := int64(epochs * len(keys))
	if got := snap.Counters["fpga.pool.jobs_dispatched"]; got != wantJobs {
		t.Errorf("jobs_dispatched = %d, want %d", got, wantJobs)
	}
	if got := snap.Counters["fpga.p2p.samples_prepared"]; got != wantJobs {
		t.Errorf("p2p samples_prepared = %d, want %d", got, wantJobs)
	}
	for _, dev := range []string{"fpga.pool.device.0.utilization", "fpga.pool.device.1.utilization"} {
		util, ok := snap.Gauges[dev]
		if !ok {
			t.Errorf("%s missing", dev)
			continue
		}
		if util <= 0 || util > 1 {
			t.Errorf("%s = %v, want in (0, 1]", dev, util)
		}
	}
	if got := snap.Counters["pipeline.fpga-pool.pool-dispatch.items"]; got != wantJobs {
		t.Errorf("dispatch stage items = %d, want %d", got, wantJobs)
	}
	lat := snap.Histograms["fpga.p2p.sample_ns"]
	if lat.Count != wantJobs || lat.P95 < lat.P50 {
		t.Errorf("sample latency histogram implausible: %+v", lat)
	}
}

// TestP2PBatchMetrics: a metered handler must stream its fpga.p2p.*
// series for a batch it serves alone, with no cluster metrics attached.
func TestP2PBatchMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	handlers, store, _ := leaseFixture(t, 1, WithMetrics(reg))
	cluster := newCluster(t, handlers)

	out, err := cluster.PrepareBatch(context.Background(), store.Keys(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fpga.p2p.samples_prepared"]; got != int64(len(out)) {
		t.Errorf("p2p samples_prepared = %d, want %d", got, len(out))
	}
	if lat := snap.Histograms["fpga.p2p.sample_ns"]; lat.Count != int64(len(out)) {
		t.Errorf("p2p sample_ns count = %d, want %d", lat.Count, len(out))
	}
	if _, ok := snap.Counters["fpga.pool.jobs_dispatched"]; ok {
		t.Error("unmetered cluster reported dispatch counters")
	}
}
