package core

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/workload"
)

// UtilCategory labels one stacked component of Figure 22's host-resource
// utilization bars.
type UtilCategory string

// Figure 22's legend.
const (
	CatSSDRead      UtilCategory = "SSD read"
	CatFormatting   UtilCategory = "Data formatting"
	CatAugmentation UtilCategory = "Data augmentation"
	CatCopy         UtilCategory = "Data copy"
	CatLoad         UtilCategory = "Data load"
	CatOthers       UtilCategory = "Others"
)

// HostUtilization is one architecture's per-sample host-resource
// consumption decomposed by source, normalized to the baseline's total
// for the same resource — exactly Figure 22's y-axis.
type HostUtilization struct {
	Kind   arch.Kind
	CPU    map[UtilCategory]float64
	Memory map[UtilCategory]float64
	PCIe   map[UtilCategory]float64
}

// Total sums one resource's categories.
func total(m map[UtilCategory]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// CPUTotal returns the normalized CPU consumption.
func (u HostUtilization) CPUTotal() float64 { return total(u.CPU) }

// MemoryTotal returns the normalized memory-bandwidth consumption.
func (u HostUtilization) MemoryTotal() float64 { return total(u.Memory) }

// PCIeTotal returns the normalized root-complex consumption.
func (u HostUtilization) PCIeTotal() float64 { return total(u.PCIe) }

// UtilizationLadder computes Figure 22 for one workload: the
// per-architecture host-resource consumption of Baseline, B+Acc,
// B+Acc+P2P, and TrainBox, normalized to the baseline totals.
func UtilizationLadder(w workload.Workload) ([]HostUtilization, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := w.Prep
	baseCPU := p.TotalCPUSeconds()
	baseMem := float64(p.TotalMemoryBytes())
	basePCIe := float64(p.StoredBytes + p.TensorBytes) // RC bytes/sample
	if baseCPU <= 0 || baseMem <= 0 || basePCIe <= 0 {
		return nil, fmt.Errorf("core: workload %s has degenerate baseline demands", w.Name)
	}

	mk := func() map[UtilCategory]float64 { return map[UtilCategory]float64{} }
	ladder := []arch.Kind{arch.Baseline, arch.BaselineAcc, arch.BaselineAccP2P, arch.TrainBox}
	out := make([]HostUtilization, 0, len(ladder))
	for _, k := range ladder {
		u := HostUtilization{Kind: k, CPU: mk(), Memory: mk(), PCIe: mk()}
		switch k {
		case arch.Baseline:
			u.CPU[CatFormatting] = p.CPUSeconds[workload.OpFormat] / baseCPU
			u.CPU[CatAugmentation] = p.CPUSeconds[workload.OpAugment] / baseCPU
			u.CPU[CatLoad] = p.CPUSeconds[workload.OpLoad] / baseCPU
			u.CPU[CatOthers] = p.CPUSeconds[workload.OpOther] / baseCPU
			u.Memory[CatSSDRead] = float64(p.MemoryBytes[workload.OpSSDRead]) / baseMem
			u.Memory[CatFormatting] = float64(p.MemoryBytes[workload.OpFormat]) / baseMem
			u.Memory[CatAugmentation] = float64(p.MemoryBytes[workload.OpAugment]) / baseMem
			u.Memory[CatLoad] = float64(p.MemoryBytes[workload.OpLoad]) / baseMem
			u.Memory[CatOthers] = float64(p.MemoryBytes[workload.OpOther]) / baseMem
			u.PCIe[CatSSDRead] = float64(p.StoredBytes) / basePCIe
			u.PCIe[CatLoad] = float64(p.TensorBytes) / basePCIe
		case arch.BaselineAcc:
			// Offloaded compute; the host still stages every byte twice.
			u.CPU[CatLoad] = p.CPUSeconds[workload.OpLoad] / baseCPU
			u.CPU[CatOthers] = p.CPUSeconds[workload.OpOther] / baseCPU
			u.Memory[CatCopy] = 2 * float64(p.StoredBytes+p.TensorBytes) / baseMem
			u.PCIe[CatSSDRead] = float64(p.StoredBytes) / basePCIe
			u.PCIe[CatCopy] = float64(p.StoredBytes+p.TensorBytes) / basePCIe
			u.PCIe[CatLoad] = float64(p.TensorBytes) / basePCIe
		case arch.BaselineAccP2P:
			// Host memory freed; PCIe pressure unchanged (Section IV-D).
			u.CPU[CatOthers] = p.CPUSeconds[workload.OpOther] / baseCPU
			u.Memory[CatOthers] = float64(p.MemoryBytes[workload.OpOther]) / 8 / baseMem
			u.PCIe[CatSSDRead] = float64(p.StoredBytes) / basePCIe
			u.PCIe[CatCopy] = float64(p.StoredBytes+p.TensorBytes) / basePCIe
			u.PCIe[CatLoad] = float64(p.TensorBytes) / basePCIe
		case arch.TrainBox:
			// Clustering localizes the datapath: the host sees almost
			// nothing.
			u.CPU[CatOthers] = p.CPUSeconds[workload.OpOther] / 8 / baseCPU
			u.Memory[CatOthers] = float64(p.MemoryBytes[workload.OpOther]) / 8 / baseMem
			u.PCIe[CatOthers] = 0.02 // residual control traffic
		}
		out = append(out, u)
	}
	return out, nil
}
