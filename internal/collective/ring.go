// Package collective implements model synchronization for the TrainBox
// reproduction: a real chunked ring all-reduce executed by goroutine
// "accelerators" over channels, plus the analytical latency models the
// paper's simulator uses (Section II-B, Figure 2b).
//
// The ring is the one executable topology. Tree, halving-doubling and
// the sharded parameter server exist only as latency models (TreeModel,
// HalvingDoublingModel, ParamServerModel), which experiments.SyncStudy
// prices against RingModel across box counts: in one address space
// there are no links for a topology to spare, and the ring moves the
// fewest bytes per rank.
//
// The ring algorithm is NCCL-style: a reduce-scatter phase followed by an
// all-gather phase, each of n−1 steps moving one data segment per step.
// Every rank transmits 2·(n−1)/n of the model size in total, which is why
// ring synchronization latency saturates at twice the two-accelerator
// latency as n grows — the curve Figure 2b plots and the property the
// analytical model reproduces exactly.
package collective

// CentralAllReduce is the naive baseline: gather all vectors to rank 0,
// sum, and broadcast. Same result as the ring Reducer up to float
// addition order; used by tests as an oracle.
func CentralAllReduce(data [][]float64) error {
	_, length, err := validateRanks(data)
	if err != nil {
		return err
	}
	sum := make([]float64, length)
	for _, d := range data {
		for i, v := range d {
			sum[i] += v
		}
	}
	for _, d := range data {
		copy(d, sum)
	}
	return nil
}
