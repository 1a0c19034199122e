package experiments

import (
	"math"
	"reflect"
	"testing"

	"trainbox/internal/workload"
)

func TestSyncStudyShapeAndHeadlines(t *testing.T) {
	r, err := SyncStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) < 3 {
		t.Fatalf("sync study has %d box-count rows, want >= 3", len(r.Table.Rows))
	}
	// The functional cross-check is the acceptance criterion: every
	// backend bit-identical to the ring.
	if r.MaxDivergence != 0 {
		t.Errorf("MaxDivergence = %g, want exactly 0", r.MaxDivergence)
	}
	// The 256-accel headlines are closed-form, so they are pinned: a
	// calibration change that moves one must change it here too. 4×
	// compression over the same ports beats the host eth ring by a
	// factor in (1, compression·2] — the ring moves ~2 copies per port,
	// the offload moves 2 compressed copies.
	for _, h := range []struct {
		name      string
		got, want float64
	}{
		{"RingMs", r.RingMs, 2.211859375},
		{"PSMs", r.PSMs, 17.354866666666666},
		{"InNetworkMs", r.InNetworkMs, 6.51},
		{"InNetworkSpeedup", r.InNetworkSpeedup, 4.061491935483871},
	} {
		if math.Abs(h.got-h.want) > 1e-9 {
			t.Errorf("%s = %.12g, want %.12g", h.name, h.got, h.want)
		}
	}
	// The dedicated PS tier at one shard box per train box is
	// server-ingest bound (8 workers per shard), so it must cost more
	// than the bandwidth-optimal ring on the same fabric.
	if r.PSMs <= r.RingMs {
		t.Errorf("PS (%.3fms) unexpectedly beat the ring (%.3fms)", r.PSMs, r.RingMs)
	}

	// Largest row must be the paper's 256-accel target.
	last := r.Table.Rows[len(r.Table.Rows)-1]
	if last[1] != "256" {
		t.Errorf("last row accels = %s, want 256 (workload.TargetAccelerators=%d)",
			last[1], workload.TargetAccelerators)
	}
}

func TestSyncStudyDeterministic(t *testing.T) {
	a, err := SyncStudy()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyncStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Table.Rows, b.Table.Rows) {
		t.Error("sync study rows differ between runs")
	}
	if a.InNetworkSpeedup != b.InNetworkSpeedup || a.MaxDivergence != b.MaxDivergence {
		t.Error("sync study headlines differ between runs")
	}
}
