package experiments

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/report"
	"trainbox/internal/workload"
)

// failureStudy injects device failures into TrainBox running w and
// measures the degradation, with and without the prep-pool: one in-box
// FPGA down per box, and one in-box SSD down per box. The pool's
// resilience role is an implication of Section V-D (underutilized FPGAs
// back up overloaded boxes) that the paper states but does not quantify.
func failureStudy(w workload.Workload) (Result, error) {
	t := report.NewTable(
		fmt.Sprintf("Failure injection — %s at 256 accelerators", w.Name),
		"scenario", "pool", "throughput (samples/s)", "vs healthy %", "bottleneck")
	scenarios := []struct {
		label       string
		fpgas, ssds int // per box; zero is the healthy default
	}{
		{"healthy", 0, 0},
		{"1 FPGA down per box", 1, 0},
		{"1 SSD down per box", 0, 1},
	}
	for _, pooled := range []struct {
		label string
		kind  arch.Kind
	}{{"no", arch.TrainBoxNoPool}, {"yes", arch.TrainBox}} {
		var healthy float64
		for _, sc := range scenarios {
			cfg := at256(pooled.kind)
			cfg.FPGAsPerBox, cfg.SSDsPerBox = sc.fpgas, sc.ssds
			res, err := solve(cfg, w)
			if err != nil {
				return Result{}, err
			}
			if sc.label == "healthy" {
				healthy = float64(res.Throughput)
			}
			t.AddRowf(sc.label, pooled.label, float64(res.Throughput),
				100*float64(res.Throughput)/healthy, res.Bottleneck)
		}
	}
	return tables(t), nil
}
