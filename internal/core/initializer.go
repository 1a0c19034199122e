package core

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/fpga"
	"trainbox/internal/storage"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// TrainPlan is the train initializer's output (Section V-A): data
// distribution across train-box SSD shards, the measured per-batch
// execution time, the required preparation throughput, and the prep-pool
// allocation per box.
type TrainPlan struct {
	Workload workload.Workload
	// Shards[i] lists the dataset keys assigned to box i's SSDs.
	Shards [][]string
	// BatchTime is the measured per-batch accelerator time (compute +
	// synchronization), the initializer's dummy-batch measurement.
	BatchTime float64
	// RequiredPrepRate is the preparation throughput that keeps the
	// accelerators fed.
	RequiredPrepRate units.SamplesPerSec
	// PerBox is each train box's prep-pool allocation.
	PerBox []fpga.PoolAllocation
	// PoolFPGAsUsed is the whole-device total drawn from the pool.
	PoolFPGAsUsed int
	// Feasible reports whether every box meets its requirement.
	Feasible bool
}

// InitializeTraining runs the train initializer against a built TrainBox
// system: it partitions the dataset keys over boxes, "measures" the
// per-batch time from the accelerator model (the paper feeds random dummy
// batches; the model is our measurement), derives the required
// preparation throughput, and sizes the prep-pool per box.
func InitializeTraining(sys *arch.System, w workload.Workload, datasetKeys []string) (TrainPlan, error) {
	if !sys.Config.Kind.Clustered() {
		return TrainPlan{}, fmt.Errorf("core: train initializer targets clustered systems, got %v", sys.Config.Kind)
	}
	if err := w.Validate(); err != nil {
		return TrainPlan{}, err
	}
	plan := TrainPlan{Workload: w}

	// 1. Distribute the data to SSDs in each train box.
	shards, err := storage.Partition(datasetKeys, len(sys.Boxes))
	if err != nil {
		return TrainPlan{}, err
	}
	plan.Shards = shards

	// 2. Measure per-batch execution time (compute + sync).
	cluster, err := newAccelCluster(len(sys.Accels))
	if err != nil {
		return TrainPlan{}, err
	}
	plan.BatchTime = cluster.StepTime(w, w.BatchSize)
	if plan.BatchTime <= 0 {
		return TrainPlan{}, fmt.Errorf("core: degenerate batch time for %s", w.Name)
	}

	// 3. Required preparation throughput: every accelerator consumes one
	//    batch per step.
	plan.RequiredPrepRate = units.SamplesPerSec(
		float64(len(sys.Accels)*w.BatchSize) / plan.BatchTime)

	// 4. Size the pool per box.
	perBoxRate := float64(plan.RequiredPrepRate) / float64(len(sys.Boxes))
	available := sys.Config.PoolFPGAs
	plan.Feasible = true
	for _, g := range sys.Boxes {
		alloc, err := fpga.SizePool(fpga.PoolRequest{
			RequiredRate:          units.SamplesPerSec(perBoxRate),
			InBoxFPGAs:            len(g.FPGAs),
			Type:                  w.Type,
			OffloadBytesPerSample: w.Prep.StoredBytes + w.Prep.TensorBytes,
		}, sys.PoolNet, available)
		if err != nil {
			if !sys.Config.Kind.HasPool() {
				// No pool: record the shortfall and continue.
				alloc = fpga.PoolAllocation{
					InBoxRate: units.SamplesPerSec(float64(fpga.PrepRate(w.Type)) * float64(len(g.FPGAs))),
				}
				alloc.Satisfied = float64(alloc.InBoxRate) >= perBoxRate
			} else {
				return TrainPlan{}, err
			}
		}
		available -= alloc.PoolFPGAs
		if available < 0 {
			available = 0
		}
		plan.PoolFPGAsUsed += alloc.PoolFPGAs
		if !alloc.Satisfied {
			plan.Feasible = false
		}
		plan.PerBox = append(plan.PerBox, alloc)
	}
	return plan, nil
}
