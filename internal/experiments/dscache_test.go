package experiments

import (
	"strconv"
	"testing"
)

// TestCacheStudy pins the study's acceptance-level claims: 4 concurrent
// consumers on an ample budget amortize decodes at least 2× (in fact
// consumers × epochs ×), and the tight-budget cell really does decode
// more than the ample one (the sweep exercises eviction).
func TestCacheStudy(t *testing.T) {
	r := run(t, "dscache", "")
	tb := r.Tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("table has %d rows, want 4", len(tb.Rows))
	}
	// Single-flight makes the headline cell exact: 4 consumers × 3 epochs
	// × 8 keys acquire 96 times and decode once per key — hit rate 88/96,
	// 8/3 decodes per epoch, 12× amortization.
	cached, uncached := headline(t, r, "cached decodes"), headline(t, r, "uncached decodes")
	if amort := headline(t, r, "amortization"); cached != 8 || uncached != 96 || amort != 12 {
		t.Fatalf("headline cell: %v decodes with the tier, %v without, %.2f×; want 8, 96, 12×",
			cached, uncached, amort)
	}
	if got := tb.Rows[1][4]; got != "0.92" {
		t.Fatalf("4-consumer hit rate = %s, want 0.92 (88 of 96 acquires)", got)
	}
	// Column 3 is the decode count; the tight-budget row (last) must
	// decode more than the ample 4-consumer row (second).
	ample, err1 := strconv.ParseInt(tb.Rows[1][3], 10, 64)
	tight, err2 := strconv.ParseInt(tb.Rows[3][3], 10, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("decode cells unparseable: %v / %v", err1, err2)
	}
	if tight <= ample {
		t.Fatalf("tight budget decoded %d ≤ ample %d — eviction never happened", tight, ample)
	}
}
