// Package core is the TrainBox system model: given a server architecture
// (internal/arch), a workload (internal/workload), and a scale, it
// computes steady-state training throughput, the binding bottleneck, host
// resource requirements, latency decompositions, and prep-pool sizing —
// the quantities behind every figure in the paper's evaluation.
//
// Training is a two-stage pipeline (Figure 1 with next-batch prefetching):
// data preparation for batch i+1 overlaps model computation +
// synchronization for batch i, so
//
//	throughput = min(prep throughput, compute+sync throughput).
//
// Preparation throughput is a bottleneck analysis: each prepared sample
// places demands on host CPU seconds, host DRAM bytes, bytes on every
// PCIe link its datapath crosses, root-complex switching, SSD read
// bandwidth, preparation-device time, and (for pooled samples) Ethernet
// bytes. The architecture defines the datapath; the binding resource
// defines the rate. Discrete-event replays in this package's tests
// (SimulatePrep, SimulateBoxTransfers) validate the analytical answer.
package core

import (
	"fmt"
	"math"

	"trainbox/internal/arch"
	"trainbox/internal/fpga"
	"trainbox/internal/pcie"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// Preparation-device throughput constants beyond the FPGA (Section V-B's
// device discussion). GPUs handle data formatting poorly ("there is no
// good parallel algorithm for the Huffman decoding phase"), so their
// rates sit well below the FPGA's; Xeon Phi behaves like a pool of slow
// cores (the paper: "more than 37.8 cores/accelerator or 0.52
// device/accelerator").
const (
	// GPUImagePrepRate is one GPU's image preparation throughput.
	GPUImagePrepRate units.SamplesPerSec = 2000
	// GPUAudioPrepRate is one GPU's audio preparation throughput (many
	// small FFTs vectorize poorly).
	GPUAudioPrepRate units.SamplesPerSec = 1000
	// PhiCoreEquivalents is one Xeon Phi's worth of host-core-equivalent
	// compute (72 cores at half the Xeon clock).
	PhiCoreEquivalents = 36.0
)

// Constraint names used in Result.Bottleneck.
const (
	ConstraintCPU      = "host-cpu"
	ConstraintMemory   = "host-memory-bw"
	ConstraintRC       = "pcie-root-complex"
	ConstraintLink     = "pcie-link"
	ConstraintSSD      = "ssd-read"
	ConstraintPrep     = "prep-device"
	ConstraintEthernet = "prep-pool-ethernet"
	ConstraintCompute  = "accel-compute+sync"
)

// Result is the solved steady state for one (architecture, workload,
// batch) point.
type Result struct {
	// Throughput is the end-to-end training throughput.
	Throughput units.SamplesPerSec
	// PrepRate is the data-preparation stage's maximum rate.
	PrepRate units.SamplesPerSec
	// ComputeRate is the model computation + synchronization stage's rate.
	ComputeRate units.SamplesPerSec
	// Bottleneck names the binding constraint.
	Bottleneck string
	// Constraints maps every modelled constraint to the rate it alone
	// would allow.
	Constraints map[string]units.SamplesPerSec
	// PrepBound reports whether data preparation limits the system —
	// the paper's central claim at scale.
	PrepBound bool
}

// Solve computes the steady-state result at the workload's Table I batch
// size.
func Solve(sys *arch.System, w workload.Workload) (Result, error) {
	return SolveBatch(sys, w, w.BatchSize)
}

// SolveBatch computes the steady-state result at an explicit per-
// accelerator batch size.
func SolveBatch(sys *arch.System, w workload.Workload, batch int) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if batch <= 0 {
		return Result{}, fmt.Errorf("core: batch size %d", batch)
	}
	cons := map[string]units.SamplesPerSec{}

	// Stage (b): model computation + synchronization.
	cluster, err := newAccelCluster(len(sys.Accels))
	if err != nil {
		return Result{}, err
	}
	computeRate := cluster.Throughput(w, batch)
	cons[ConstraintCompute] = computeRate

	// Stage (a): data preparation.
	// Host CPU.
	cpu := cpuSecondsPerSample(sys.Config.Kind, w)
	if cpu > 0 {
		cons[ConstraintCPU] = units.SamplesPerSec(float64(sys.Config.Host.Cores) / cpu)
	}
	// Host DRAM bandwidth.
	mem := memoryBytesPerSample(sys.Config.Kind, w)
	if mem > 0 {
		cons[ConstraintMemory] = units.SamplesPerSec(float64(sys.Config.Host.MemoryBandwidth) / float64(mem))
	}
	// PCIe fabric: route one sample's flows, find the busiest link and
	// the root-complex aggregate.
	ll := prepLinkLoad(sys, w)
	if sec, _, _ := ll.MaxUnitTime(); sec > 0 {
		cons[ConstraintLink] = units.SamplesPerSec(1 / sec)
	}
	if rcBytes := ll.RootComplexLoad(); rcBytes > 0 {
		cons[ConstraintRC] = units.SamplesPerSec(float64(sys.RCCap) / float64(rcBytes))
	}
	// SSD device read bandwidth.
	if w.Prep.StoredBytes > 0 && len(sys.SSDs) > 0 {
		total := float64(sys.Config.SSD.ReadBandwidth) * float64(len(sys.SSDs))
		cons[ConstraintSSD] = units.SamplesPerSec(total / float64(w.Prep.StoredBytes))
	}
	// Preparation device capacity (the TrainBox value already folds in
	// the prep-pool and its Ethernet ceiling).
	if prepCap := prepDeviceCapacity(sys, w); prepCap > 0 {
		cons[ConstraintPrep] = prepCap
	}

	res := Result{Constraints: cons}
	res.Throughput = units.SamplesPerSec(math.Inf(1))
	for name, rate := range cons {
		if float64(rate) < float64(res.Throughput) {
			res.Throughput = rate
			res.Bottleneck = name
		}
	}
	res.ComputeRate = computeRate
	res.PrepRate = units.SamplesPerSec(math.Inf(1))
	for name, rate := range cons {
		if name == ConstraintCompute {
			continue
		}
		if float64(rate) < float64(res.PrepRate) {
			res.PrepRate = rate
		}
	}
	res.PrepBound = res.Bottleneck != ConstraintCompute
	return res, nil
}

// cpuSecondsPerSample returns the host CPU demand per prepared sample
// under each architecture:
//
//   - Baseline: the full preparation pipeline runs on host cores.
//   - B+Acc: formatting and augmentation are offloaded; the host still
//     stages data (OpLoad) and runs drivers/framework (OpOther).
//   - P2P variants: staging disappears with the host-memory bounce; the
//     NVMe driver work moves into the FPGA's P2P handler ("further
//     reduces the CPU utilization by removing the NVMe driver overhead"),
//     leaving OpOther.
//   - TrainBox: offloaded device interaction also cuts user/kernel
//     switching (Section V-A), cutting the residual to an eighth.
func cpuSecondsPerSample(k arch.Kind, w workload.Workload) float64 {
	p := w.Prep
	switch {
	case k == arch.Baseline:
		return p.TotalCPUSeconds()
	case !k.UsesP2P():
		return p.CPUSeconds[workload.OpLoad] + p.CPUSeconds[workload.OpOther]
	case !k.Clustered():
		return p.CPUSeconds[workload.OpOther]
	default:
		return p.CPUSeconds[workload.OpOther] / 8
	}
}

// memoryBytesPerSample returns host DRAM traffic per prepared sample:
// the full profile for the baseline; pure staging (item in and out, twice
// — once toward the FPGA, once toward the accelerator) for B+Acc; nothing
// on the data path once P2P removes the host bounce.
func memoryBytesPerSample(k arch.Kind, w workload.Workload) units.Bytes {
	p := w.Prep
	switch {
	case k == arch.Baseline:
		return p.TotalMemoryBytes()
	case !k.UsesP2P():
		return 2 * (p.StoredBytes + p.TensorBytes)
	default:
		return p.MemoryBytes[workload.OpOther] / 8 // residual descriptors
	}
}

// prepLinkLoad routes one prepared sample's PCIe transfers through the
// topology, spreading uniformly over the participating devices.
func prepLinkLoad(sys *arch.System, w workload.Workload) *pcie.LinkLoad {
	ll := pcie.NewLinkLoad(sys.Topo)
	stored := w.Prep.StoredBytes
	tensor := w.Prep.TensorBytes
	nS, nA, nP := len(sys.SSDs), len(sys.Accels), len(sys.PrepAccels)

	switch k := sys.Config.Kind; {
	case k == arch.Baseline:
		// SSD → host(root) → accelerator.
		for _, s := range sys.SSDs {
			ll.AddTransfer(s, sys.Root, stored/units.Bytes(nS))
		}
		for _, a := range sys.Accels {
			ll.AddTransfer(sys.Root, a, tensor/units.Bytes(nA))
		}
	case !k.UsesP2P():
		// SSD → host → FPGA → host → accelerator.
		for _, s := range sys.SSDs {
			ll.AddTransfer(s, sys.Root, stored/units.Bytes(nS))
		}
		for _, p := range sys.PrepAccels {
			ll.AddTransfer(sys.Root, p, stored/units.Bytes(nP))
			ll.AddTransfer(p, sys.Root, tensor/units.Bytes(nP))
		}
		for _, a := range sys.Accels {
			ll.AddTransfer(sys.Root, a, tensor/units.Bytes(nA))
		}
	case !k.Clustered():
		// P2P but type-grouped boxes: direct routes, still through RC.
		for _, s := range sys.SSDs {
			for _, p := range sys.PrepAccels {
				ll.AddTransfer(s, p, stored/units.Bytes(nS*nP))
			}
		}
		for _, p := range sys.PrepAccels {
			for _, a := range sys.Accels {
				ll.AddTransfer(p, a, tensor/units.Bytes(nP*nA))
			}
		}
	default:
		// TrainBox: all flows stay inside each train box. Pool-prepared
		// samples follow the same PCIe path (raw in over the SSD link and
		// out/in over Ethernet, tensor out over the FPGA link), so PCIe
		// loads are independent of pooling.
		for _, g := range sys.Boxes {
			share := units.Bytes(float64(len(g.Accels)) / float64(nA))
			for _, s := range g.SSDs {
				for _, p := range g.FPGAs {
					ll.AddTransfer(s, p, stored*share/units.Bytes(len(g.SSDs)*len(g.FPGAs)))
				}
			}
			for _, p := range g.FPGAs {
				for _, a := range g.Accels {
					ll.AddTransfer(p, a, tensor*share/units.Bytes(len(g.FPGAs)*len(g.Accels)))
				}
			}
		}
	}
	return ll
}

// prepDeviceCapacity returns the preparation-device rate limit: 0 for
// CPU prep (covered by the host CPU constraint), the device-array
// capacity for the flat offloaded architectures, and in-box capacity
// plus Ethernet-capped pool capacity for TrainBox.
func prepDeviceCapacity(sys *arch.System, w workload.Workload) units.SamplesPerSec {
	k := sys.Config.Kind
	if k == arch.Baseline {
		return 0
	}
	perDev := perDevicePrepRate(sys.Config.Prep, w)
	n := len(sys.PrepAccels)
	inBox := units.SamplesPerSec(float64(perDev) * float64(n))
	if !k.Clustered() || !k.HasPool() || sys.PoolNet == nil {
		return inBox
	}
	// Pool capacity shared across boxes, capped by the Ethernet ceiling
	// on shipping raw items out and prepared tensors back through the
	// in-box FPGAs' ports. Only the pooled fraction pays Ethernet.
	pooled := float64(perDev) * float64(sys.Config.PoolFPGAs)
	if offload := w.Prep.StoredBytes + w.Prep.TensorBytes; offload > 0 {
		ethCap := float64(sys.PoolNet.Link().Bandwidth) * float64(n) / float64(offload)
		if pooled > ethCap {
			pooled = ethCap
		}
	}
	return inBox + units.SamplesPerSec(pooled)
}

// perDevicePrepRate returns one preparation device's throughput for the
// workload's input type.
func perDevicePrepRate(d arch.PrepDevice, w workload.Workload) units.SamplesPerSec {
	switch d {
	case arch.PrepGPU:
		if w.Type == workload.Audio {
			return GPUAudioPrepRate
		}
		return GPUImagePrepRate
	case arch.PrepXeonPhi:
		return units.SamplesPerSec(PhiCoreEquivalents / w.Prep.TotalCPUSeconds())
	default:
		return fpga.PrepRate(w.Type)
	}
}
