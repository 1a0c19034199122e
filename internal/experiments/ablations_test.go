package experiments

import (
	"strconv"
	"testing"
)

func TestAblationFPGAProvisioningMonotone(t *testing.T) {
	tb := run(t, "ablation-fpga", "Resnet-50").Tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// More in-box FPGAs never hurt throughput.
	prev := 0.0
	for i, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev*(1-1e-9) {
			t.Errorf("row %d: throughput %v fell below %v", i, v, prev)
		}
		prev = v
	}
}

func TestAblationEthernetMonotone(t *testing.T) {
	tb := run(t, "ablation-ethernet", "").Tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	prev := -1.0
	satisfiedSeen := false
	for _, row := range tb.Rows {
		rate, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if rate < prev {
			t.Errorf("total rate fell from %v to %v with more bandwidth", prev, rate)
		}
		prev = rate
		if row[3] == "true" {
			satisfiedSeen = true
		}
	}
	if !satisfiedSeen {
		t.Error("no link bandwidth satisfied TF-SR — even dual-100G should")
	}
	// The slowest link must not satisfy (that is the point of the sweep).
	if tb.Rows[0][3] == "true" {
		t.Error("10 GbE satisfied TF-SR; the ablation should show strangulation")
	}
}

func TestAblationSyncSchemeRingWins(t *testing.T) {
	tb := run(t, "ablation-sync", "").Tables[0]
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		c, _ := strconv.ParseFloat(row[1], 64)
		tr, _ := strconv.ParseFloat(row[2], 64)
		r, _ := strconv.ParseFloat(row[3], 64)
		if !(r >= tr && tr >= c) {
			t.Errorf("%s: expected ring ≥ tree ≥ central, got %v %v %v", row[0], c, tr, r)
		}
	}
}

func TestAblationRCCapacityGrowsButTrainBoxStillWins(t *testing.T) {
	tb := run(t, "ablation-rc", "Resnet-50").Tables[0]
	prev := 0.0
	for i, row := range tb.Rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		if v < prev {
			t.Errorf("row %d throughput fell", i)
		}
		prev = v
	}
	// Even at 4× RC capacity, TrainBox stays ahead (ratio > 1).
	ratio, _ := strconv.ParseFloat(tb.Rows[2][3], 64)
	if ratio <= 1 {
		t.Errorf("TrainBox ratio at 4× RC = %v, want > 1", ratio)
	}
}

func TestAblationPoolSharingShape(t *testing.T) {
	tb := run(t, "ablation-pool", "").Tables[0]
	if len(tb.Rows) != 12 { // 4 pool sizes × 3 jobs
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// With a 32-FPGA pool every job is satisfied; with zero, the
	// deficit jobs are not.
	for _, row := range tb.Rows[:3] {
		if row[4] != "true" {
			t.Errorf("ample pool left %s unsatisfied", row[1])
		}
	}
	starvedUnsat := 0
	for _, row := range tb.Rows[9:] {
		if row[4] == "false" {
			starvedUnsat++
		}
	}
	if starvedUnsat == 0 {
		t.Error("zero pool satisfied every job")
	}
}
