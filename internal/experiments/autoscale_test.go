package experiments

import (
	"strconv"
	"testing"
)

// TestAutoscaleStudy pins the study's structural invariants. The
// autoscaled trajectory depends on live stage timings, so the test
// asserts the ablation's shape — the static arm never moves, the
// scaled arm stays inside its [Min, Max] band — not a specific path
// (preppool's unit tests pin the controller arithmetic).
func TestAutoscaleStudy(t *testing.T) {
	res := run(t, "autoscale", "")
	tb := res.Tables[0]
	if len(tb.Rows) != 12 { // 6 epochs × 2 modes
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		rate, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("row %v: unparsable rate: %v", row, err)
		}
		switch row[0] {
		case "static":
			if rate != 4000 {
				t.Errorf("static row %v moved off the pinned demand", row)
			}
		case "autoscaled":
			if rate < 4000 || rate > 32000 {
				t.Errorf("autoscaled row %v left the [Min, Max] band", row)
			}
		default:
			t.Errorf("row %v has unknown mode", row)
		}
	}
	if r := headline(t, res, "static final rate"); r != 4000 {
		t.Errorf("static final rate = %v, want 4000", r)
	}
	if r := headline(t, res, "autoscaled final rate"); r < 4000 || r > 32000 {
		t.Errorf("autoscaled final rate = %v outside [4000, 32000]", r)
	}
}
