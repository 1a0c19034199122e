package core

import (
	"fmt"

	"trainbox/internal/collective"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// accelCluster is a set of identical accelerators (TPU v3-8-class)
// joined by a ring-optimized interconnect (NVLink/NVSwitch-class,
// Section V-D). Following the paper's methodology an accelerator is a
// black-box throughput source: per-workload rates are the Table I cloud
// measurements, batch-size efficiency follows a saturating curve, and
// model synchronization uses the ring model from internal/collective.
// Together they give the "model computation + synchronization" stage of
// the training pipeline.
type accelCluster struct {
	n    int
	ring collective.RingModel
}

// newAccelCluster builds a cluster of n accelerators with the default ring.
func newAccelCluster(n int) (accelCluster, error) {
	if n <= 0 {
		return accelCluster{}, fmt.Errorf("core: cluster needs at least one accelerator, got %d", n)
	}
	return accelCluster{n: n, ring: collective.DefaultRingModel()}, nil
}

// ComputeTime returns one accelerator's time for a batch of the workload
// at the given batch size.
func ComputeTime(w workload.Workload, batch int) float64 {
	if batch <= 0 {
		return 0
	}
	rate := w.EffectiveAccelRate(batch)
	if rate <= 0 {
		return 0
	}
	return float64(batch) / float64(rate)
}

// SyncTime returns the cluster's model-synchronization time per step.
func (c accelCluster) SyncTime(w workload.Workload) float64 {
	return c.ring.Latency(c.n, w.ModelBytes)
}

// StepTime returns the compute + synchronization time of one training
// step (every accelerator processes one batch, then gradients ring).
func (c accelCluster) StepTime(w workload.Workload, batch int) float64 {
	return ComputeTime(w, batch) + c.SyncTime(w)
}

// Throughput returns the cluster's sample throughput for the workload at
// the given per-accelerator batch size: n·batch / step time. This is the
// "(b) model computation and synchronization" stage that data
// preparation must keep fed.
func (c accelCluster) Throughput(w workload.Workload, batch int) units.SamplesPerSec {
	st := c.StepTime(w, batch)
	if st <= 0 {
		return 0
	}
	return units.SamplesPerSec(float64(c.n) * float64(batch) / st)
}

// PeakThroughput returns the cluster throughput at the workload's Table I
// batch size.
func (c accelCluster) PeakThroughput(w workload.Workload) units.SamplesPerSec {
	return c.Throughput(w, w.BatchSize)
}
