package experiments

import (
	"strconv"
	"testing"
)

func TestFailureStudyPoolAbsorbsFPGALoss(t *testing.T) {
	tb := run(t, "failure", "Inception-v4").Tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	get := func(scenario, pool string) float64 {
		for _, row := range tb.Rows {
			if row[0] == scenario && row[1] == pool {
				v, err := strconv.ParseFloat(row[3], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("missing row %s/%s", scenario, pool)
		return 0
	}
	// Without the pool, losing one FPGA per box halves prep capacity and
	// hurts; with the pool, the system stays at full throughput.
	noPool := get("1 FPGA down per box", "no")
	withPool := get("1 FPGA down per box", "yes")
	if noPool >= 99 {
		t.Errorf("no-pool FPGA failure kept %.1f%% throughput; should degrade", noPool)
	}
	if withPool < 99.9 {
		t.Errorf("pooled FPGA failure dropped to %.1f%%; pool should absorb it", withPool)
	}
}
