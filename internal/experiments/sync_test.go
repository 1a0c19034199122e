package experiments

import (
	"math"
	"reflect"
	"testing"

	"trainbox/internal/workload"
)

func TestSyncStudyShapeAndHeadlines(t *testing.T) {
	r := run(t, "sync", "")
	rows := r.Tables[0].Rows
	if len(rows) < 3 {
		t.Fatalf("sync study has %d box-count rows, want >= 3", len(rows))
	}
	// The 256-accel headlines are closed-form, so they are pinned: a
	// calibration change that moves one must change it here too. 4×
	// compression over the same ports beats the host eth ring by a
	// factor in (1, compression·2] — the ring moves ~2 copies per port,
	// the offload moves 2 compressed copies.
	for name, want := range map[string]float64{
		"ring ms":            2.211859375,
		"ps ms":              17.354866666666666,
		"in-network ms":      6.51,
		"in-network speedup": 4.061491935483871,
	} {
		if got := headline(t, r, name); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %.12g, want %.12g", name, got, want)
		}
	}
	// The dedicated PS tier at one shard box per train box is
	// server-ingest bound (8 workers per shard), so it must cost more
	// than the bandwidth-optimal ring on the same fabric.
	if ps, ring := headline(t, r, "ps ms"), headline(t, r, "ring ms"); ps <= ring {
		t.Errorf("PS (%.3fms) unexpectedly beat the ring (%.3fms)", ps, ring)
	}

	// Largest row must be the paper's 256-accel target.
	last := rows[len(rows)-1]
	if last[1] != "256" {
		t.Errorf("last row accels = %s, want 256 (workload.TargetAccelerators=%d)",
			last[1], workload.TargetAccelerators)
	}
}

func TestSyncStudyDeterministic(t *testing.T) {
	a, b := run(t, "sync", ""), run(t, "sync", "")
	if !reflect.DeepEqual(a.Tables, b.Tables) {
		t.Error("sync study tables differ between runs")
	}
	if !reflect.DeepEqual(a.Headlines, b.Headlines) {
		t.Error("sync study headlines differ between runs")
	}
}
