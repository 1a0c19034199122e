package core

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/pcie"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// Requirements quantifies the host resources a baseline-architecture
// server would need to keep n accelerators fed — the Figure 10 analysis.
// All three values are normalized to the DGX-2 reference (48 cores,
// 239 GB/s DRAM, the Gen3 root-complex capacity).
type Requirements struct {
	NumAccels int
	// TargetRate is the aggregate accelerator demand.
	TargetRate units.SamplesPerSec
	// Cores is the absolute physical-core requirement.
	Cores float64
	// CPU, MemoryBW, and PCIeBW are normalized to DGX-2.
	CPU      float64
	MemoryBW float64
	PCIeBW   float64
}

// RequiredResources computes the Figure 10 point for a workload at n
// accelerators: the baseline datapath's per-sample demands times the
// aggregate accelerator rate, normalized to DGX-2.
func RequiredResources(w workload.Workload, n int) (Requirements, error) {
	if n <= 0 {
		return Requirements{}, fmt.Errorf("core: need at least one accelerator, got %d", n)
	}
	if err := w.Validate(); err != nil {
		return Requirements{}, err
	}
	cluster, err := newAccelCluster(n)
	if err != nil {
		return Requirements{}, err
	}
	rate := float64(cluster.PeakThroughput(w))
	ref := arch.DGX2()
	rcRef := float64(arch.RCCapacity(pcie.Gen3))

	cores := rate * w.Prep.TotalCPUSeconds()
	memBW := rate * float64(w.Prep.TotalMemoryBytes())
	pcieBW := rate * float64(w.Prep.StoredBytes+w.Prep.TensorBytes)

	return Requirements{
		NumAccels:  n,
		TargetRate: units.SamplesPerSec(rate),
		Cores:      cores,
		CPU:        cores / float64(ref.Cores),
		MemoryBW:   memBW / float64(ref.MemoryBandwidth),
		PCIeBW:     pcieBW / rcRef,
	}, nil
}

// DefaultScales are the accelerator counts the paper sweeps (Figures 8,
// 10, 21): powers of two... the paper's axes use 1, 4, 16, 64, 256.
func DefaultScales() []int { return []int{1, 2, 4, 8, 16, 32, 64, 128, 256} }
