package fpga

import (
	"fmt"
	"math"

	"trainbox/internal/eth"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// PoolRequest is the train initializer's prep-pool sizing input for one
// train box group (Section V-A: "calculates the number of required data
// preparation accelerators by dividing throughput by per-accelerator
// throughput").
type PoolRequest struct {
	// RequiredRate is the preparation throughput the box must sustain
	// (per-box accelerator count × per-accelerator sample rate).
	RequiredRate units.SamplesPerSec
	// InBoxFPGAs is the number of preparation accelerators physically in
	// the train box.
	InBoxFPGAs int
	// Type selects the per-FPGA preparation rate.
	Type workload.InputType
	// OffloadBytesPerSample is the Ethernet round-trip volume for one
	// pooled sample (stored item out + prepared tensor back).
	OffloadBytesPerSample units.Bytes
}

// PoolAllocation is the initializer's result.
type PoolAllocation struct {
	// InBoxRate is what the box's own FPGAs sustain.
	InBoxRate units.SamplesPerSec
	// PoolFPGAEquivalents is the fractional pool capacity the box draws
	// (pool FPGAs are shared across boxes, so fractions are meaningful).
	PoolFPGAEquivalents float64
	// PoolFPGAs is the whole-device allocation (ceil of the equivalents),
	// what a dedicated-assignment scheduler would reserve.
	PoolFPGAs int
	// PoolRate is the preparation throughput the pooled capacity adds
	// after the Ethernet-port ceiling is applied.
	PoolRate units.SamplesPerSec
	// ExtraResourceFraction is pool FPGA-equivalents / in-box FPGAs — the
	// quantity the paper reports as "54% more FPGA resources" for TF-SR.
	ExtraResourceFraction float64
	// Satisfied reports whether in-box + pool meets the requirement.
	Satisfied bool
}

// TotalRate returns the box's aggregate preparation throughput.
func (a PoolAllocation) TotalRate() units.SamplesPerSec {
	return a.InBoxRate + a.PoolRate
}

// SizePool computes the prep-pool allocation for one box against the
// pool's Ethernet network. The box reaches the pool through its FPGAs'
// Ethernet ports (one port per in-box FPGA), so pooled throughput is
// additionally capped by the port bandwidth divided by the per-sample
// offload volume.
func SizePool(req PoolRequest, net *eth.Network, availablePoolFPGAs int) (PoolAllocation, error) {
	if req.InBoxFPGAs < 0 || availablePoolFPGAs < 0 {
		return PoolAllocation{}, fmt.Errorf("fpga: negative FPGA counts")
	}
	if req.RequiredRate < 0 {
		return PoolAllocation{}, fmt.Errorf("fpga: negative required rate")
	}
	perFPGA := PrepRate(req.Type)
	alloc := PoolAllocation{InBoxRate: units.SamplesPerSec(float64(perFPGA) * float64(req.InBoxFPGAs))}
	deficit := float64(req.RequiredRate) - float64(alloc.InBoxRate)
	if deficit <= 0 {
		alloc.Satisfied = true
		return alloc, nil
	}
	if net == nil {
		return alloc, fmt.Errorf("fpga: box needs %v extra but has no prep-pool network", units.SamplesPerSec(deficit))
	}
	equiv := deficit / float64(perFPGA)
	if equiv > float64(availablePoolFPGAs) {
		equiv = float64(availablePoolFPGAs)
	}
	alloc.PoolFPGAEquivalents = equiv
	alloc.PoolFPGAs = int(math.Ceil(equiv))
	poolRate := float64(perFPGA) * equiv
	// Ethernet ceiling: the box's FPGA ports carry offload traffic.
	if req.OffloadBytesPerSample > 0 && req.InBoxFPGAs > 0 {
		ethCap := float64(net.Link().Bandwidth) * float64(req.InBoxFPGAs) / float64(req.OffloadBytesPerSample)
		if poolRate > ethCap {
			poolRate = ethCap
		}
	}
	alloc.PoolRate = units.SamplesPerSec(poolRate)
	if req.InBoxFPGAs > 0 {
		alloc.ExtraResourceFraction = equiv / float64(req.InBoxFPGAs)
	}
	alloc.Satisfied = float64(alloc.TotalRate()) >= float64(req.RequiredRate)*(1-1e-9)
	return alloc, nil
}
