package experiments

import (
	"trainbox/internal/arch"
	"trainbox/internal/core"
	"trainbox/internal/report"
	"trainbox/internal/workload"
)

// inferenceStudy quantifies Section II-A's aside that the balance
// insight "is generally applicable to the inference as well": for each
// workload, the baseline's serving saturation point and the
// baseline-vs-TrainBox serving throughput at 256 accelerators under a
// throughput-oriented deployment.
func inferenceStudy(workload.Workload) (Result, error) {
	cfg := core.DefaultInferenceConfig()
	t := report.NewTable("Inference study — throughput-oriented serving at 256 accelerators",
		"workload", "serving rate/accel", "baseline saturation (accels)",
		"baseline (samples/s)", "trainbox (samples/s)", "speedup")
	baseSys, err := arch.Build(at256(arch.Baseline))
	if err != nil {
		return Result{}, err
	}
	tbSys, err := arch.Build(at256(arch.TrainBox))
	if err != nil {
		return Result{}, err
	}
	for _, w := range workload.Workloads() {
		sat, err := core.InferenceSaturation(w, cfg)
		if err != nil {
			return Result{}, err
		}
		base, err := core.SolveInference(baseSys, w, cfg)
		if err != nil {
			return Result{}, err
		}
		tb, err := core.SolveInference(tbSys, w, cfg)
		if err != nil {
			return Result{}, err
		}
		t.AddRowf(w.Name, float64(core.InferenceRate(w, cfg)), sat,
			float64(base.Throughput), float64(tb.Throughput),
			float64(tb.Throughput)/float64(base.Throughput))
	}
	return tables(t), nil
}
