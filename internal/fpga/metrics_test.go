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

// TestP2PBatchMetrics: a metered handler's batch path must stream the
// nvme-read and prep-engine stage series.
func TestP2PBatchMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	handlers, store, _ := leaseFixture(t, 1, WithMetrics(reg))
	h := handlers[0]

	out, err := h.PrepareBatch(store.Keys(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pipeline.fpga-p2p.nvme-read.items"]; got != int64(len(out)) {
		t.Errorf("nvme-read items = %d, want %d", got, len(out))
	}
	if got := snap.Counters["pipeline.fpga-p2p.prep-engine.items"]; got != int64(len(out)) {
		t.Errorf("prep-engine items = %d, want %d", got, len(out))
	}
}
