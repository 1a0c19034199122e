package experiments

import (
	"trainbox/internal/arch"
	"trainbox/internal/report"
	"trainbox/internal/workload"
)

// futureWork evaluates the paper's forward-looking claim ("TrainBox's
// importance will increase with better neural network accelerators and
// emerging data augmentation techniques", Section VIII) on the projected
// workloads: video action recognition and a next-generation-accelerator
// ResNet-50.
func futureWork(workload.Workload) (Result, error) {
	t := report.NewTable("Future work — projected workloads at 256 accelerators",
		"workload", "input", "baseline (samples/s)", "baseline bottleneck",
		"trainbox (samples/s)", "trainbox bottleneck", "speedup")
	// Video clips are prep-heavy: size the pool the way the initializer
	// would for the worst projection.
	tbCfg := at256(arch.TrainBox)
	tbCfg.PoolFPGAs = 4 * workload.TargetAccelerators
	for _, w := range workload.FutureWorkloads() {
		base, err := solve(at256(arch.Baseline), w)
		if err != nil {
			return Result{}, err
		}
		tb, err := solve(tbCfg, w)
		if err != nil {
			return Result{}, err
		}
		t.AddRowf(w.Name, w.Type.String(),
			float64(base.Throughput), base.Bottleneck,
			float64(tb.Throughput), tb.Bottleneck,
			float64(tb.Throughput)/float64(base.Throughput))
	}
	return tables(t), nil
}
