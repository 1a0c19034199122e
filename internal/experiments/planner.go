package experiments

import (
	"trainbox/internal/core"
	"trainbox/internal/report"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// plannerStudy exercises the rack-capacity planner across every Table I
// workload at half and full target-scale demand, showing how the
// preparation-to-compute provisioning ratio the paper's Table I spread
// implies varies by workload (audio and RNN-S lean on the pool; the
// CNNs mostly do not).
func plannerStudy(workload.Workload) (Result, error) {
	t := report.NewTable("Rack plans per workload (PlanRack)",
		"workload", "target (samples/s)", "boxes", "accels", "pool FPGAs", "achieved", "bottleneck")
	for _, w := range workload.Workloads() {
		full := float64(w.AccelRate) * float64(workload.TargetAccelerators)
		for _, frac := range []float64{0.5, 1.0} {
			target := units.SamplesPerSec(full * frac)
			plan, err := core.PlanRack(w, target, 4096)
			if err != nil {
				return Result{}, err
			}
			t.AddRowf(w.Name, float64(target), plan.Boxes, plan.Accels,
				plan.PoolFPGAs, float64(plan.Achieved), plan.Bottleneck)
		}
	}
	return tables(t), nil
}
