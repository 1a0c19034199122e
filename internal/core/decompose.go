package core

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/collective"
	"trainbox/internal/pcie"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// LatencyBreakdown is the per-global-batch stage timing behind Figures 3
// and 9: how long each pipeline stage would take for one global batch,
// before overlapping. The paper plots these as shares of the total.
type LatencyBreakdown struct {
	// Data preparation components (Figure 9's stacking).
	DataTransfer float64
	Formatting   float64
	Augmentation float64
	// The overlapped "others".
	ModelCompute float64
	ModelSync    float64
}

// PrepTotal returns the data-preparation time (transfer + formatting +
// augmentation).
func (b LatencyBreakdown) PrepTotal() float64 {
	return b.DataTransfer + b.Formatting + b.Augmentation
}

// OthersTotal returns the computation + synchronization time.
func (b LatencyBreakdown) OthersTotal() float64 {
	return b.ModelCompute + b.ModelSync
}

// Total returns the sum of all components.
func (b LatencyBreakdown) Total() float64 { return b.PrepTotal() + b.OthersTotal() }

// PrepShare returns preparation's share of the total — the quantity
// behind "data preparation accounts for 98.1% of the total latency".
func (b LatencyBreakdown) PrepShare() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.PrepTotal() / t
}

// DecomposeBaseline computes the Figure 9 decomposition for the baseline
// (CPU-prep, host-staged) architecture at n accelerators: one global
// batch (n × per-accelerator batch) prepared by the full host against
// each stage's own resource.
func DecomposeBaseline(w workload.Workload, n int) (LatencyBreakdown, error) {
	return decompose(w, n, float64(accelRateOf(w)), arch.DGX2(),
		float64(arch.RCCapacity(pcie.Gen3)), collective.DefaultRingModel())
}

// SyncStyle selects the model-synchronization scheme for Figure 3's
// optimization ladder.
type SyncStyle int

// Synchronization schemes.
const (
	// SyncCentral is naive gather+broadcast over the interconnect.
	SyncCentral SyncStyle = iota
	// SyncRing is chunked ring all-reduce.
	SyncRing
)

// Fig3Config is one bar of Figure 3's ladder: an accelerator speed, an
// interconnect for synchronization, and a synchronization scheme.
type Fig3Config struct {
	Name string
	// NumAccels and AccelRate define the compute platform.
	NumAccels int
	AccelRate units.SamplesPerSec
	// SyncBandwidth is the interconnect the gradients cross.
	SyncBandwidth units.BytesPerSec
	// Style selects the synchronization algorithm.
	Style SyncStyle
}

// Fig3Ladder returns the paper's four configurations: Current (8 Titan
// XP GPUs on PCIe Gen3), +HW accelerator (256 TPU v3-8), +ICN
// (NVLink-speed interconnect), +Synch optimization (ring-based
// reduction). Titan XP ResNet-50 throughput is ≈230 samples/s.
func Fig3Ladder() []Fig3Config {
	nvlink := collective.DefaultRingModel().LinkBandwidth
	pcieBW := pcie.Gen3.LinkBandwidth()
	return []Fig3Config{
		{Name: "Current", NumAccels: 8, AccelRate: 230, SyncBandwidth: pcieBW, Style: SyncCentral},
		{Name: "+HW accelerator", NumAccels: 256, AccelRate: 0, SyncBandwidth: pcieBW, Style: SyncCentral},
		{Name: "+ICN", NumAccels: 256, AccelRate: 0, SyncBandwidth: nvlink, Style: SyncCentral},
		{Name: "+Synch. Optimization", NumAccels: 256, AccelRate: 0, SyncBandwidth: nvlink, Style: SyncRing},
	}
}

// DecomposeFig3 computes the latency decomposition of one Figure 3
// configuration for the workload (the paper uses ResNet-50). A zero
// AccelRate in the config means "use the workload's Table I rate".
func DecomposeFig3(w workload.Workload, cfg Fig3Config) (LatencyBreakdown, error) {
	if cfg.NumAccels <= 0 {
		return LatencyBreakdown{}, fmt.Errorf("core: fig3 config needs accelerators")
	}
	rate := float64(cfg.AccelRate)
	if rate == 0 {
		rate = float64(w.AccelRate)
	}
	var b LatencyBreakdown
	host := arch.DGX2()
	g := float64(cfg.NumAccels * w.BatchSize) // global batch samples

	b.Formatting = g * w.Prep.CPUSeconds[workload.OpFormat] / float64(host.Cores)
	b.Augmentation = g * w.Prep.CPUSeconds[workload.OpAugment] / float64(host.Cores)
	b.DataTransfer = g * float64(w.Prep.StoredBytes+w.Prep.TensorBytes) / float64(arch.RCCapacity(pcie.Gen3))
	b.ModelCompute = float64(w.BatchSize) / rate

	switch cfg.Style {
	case SyncRing:
		ring := collective.DefaultRingModel()
		ring.LinkBandwidth = cfg.SyncBandwidth
		b.ModelSync = ring.Latency(cfg.NumAccels, w.ModelBytes)
	default:
		central := collective.CentralModel{LinkBandwidth: cfg.SyncBandwidth}
		b.ModelSync = central.Latency(cfg.NumAccels, w.ModelBytes)
	}
	return b, nil
}

// decompose computes the baseline stage times for one global batch.
func decompose(w workload.Workload, n int, accelRate float64, host arch.HostSpec,
	rcCap float64, ring collective.RingModel) (LatencyBreakdown, error) {
	if n <= 0 {
		return LatencyBreakdown{}, fmt.Errorf("core: need at least one accelerator, got %d", n)
	}
	var b LatencyBreakdown
	g := float64(n * w.BatchSize)
	// CPU stages run across all host cores; the transfer stage is bounded
	// by the busier of the root complex and the host DRAM path.
	b.Formatting = g * w.Prep.CPUSeconds[workload.OpFormat] / float64(host.Cores)
	b.Augmentation = g * w.Prep.CPUSeconds[workload.OpAugment] / float64(host.Cores)
	transferRC := g * float64(w.Prep.StoredBytes+w.Prep.TensorBytes) / rcCap
	transferMem := g * float64(w.Prep.MemoryBytes[workload.OpSSDRead]+w.Prep.MemoryBytes[workload.OpLoad]) /
		float64(host.MemoryBandwidth)
	b.DataTransfer = transferRC
	if transferMem > transferRC {
		b.DataTransfer = transferMem
	}
	b.ModelCompute = float64(w.BatchSize) / accelRate
	b.ModelSync = ring.Latency(n, w.ModelBytes)
	return b, nil
}

func accelRateOf(w workload.Workload) units.SamplesPerSec { return w.AccelRate }
