package experiments

import (
	"strings"
	"testing"
)

func TestDynamicPoolStudy(t *testing.T) {
	// The study errors unless closing both jobs left the fabric's
	// Reserved() at 0, so a nil error is the lease-release check.
	tb, err := DynamicPoolStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 { // 6 epochs × 2 jobs
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	// Before the crossover alpha holds 3 leases and beta 1; after it the
	// grants swap, which requires at least one lease migration.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if first[1] != "alpha" || first[3] != "3" {
		t.Errorf("epoch 0 alpha row = %v, want 3 leases", first)
	}
	if last[1] != "beta" || last[3] != "3" {
		t.Errorf("final beta row = %v, want 3 leases", last)
	}
	if last[5] == "0" {
		t.Error("no lease migrations recorded across the demand crossover")
	}
	if !strings.Contains(tb.String(), "pooled share") {
		t.Error("table lost its pooled-share column")
	}
}
