// Package arch constructs the server architectures the paper evaluates
// (Figures 12–15, 18) as concrete PCIe topologies plus the metadata the
// system model needs to route data-preparation flows through them:
//
//	Baseline            — SSD boxes + accelerator boxes; prep on host CPUs,
//	                      all data staged through host DRAM (Figure 12).
//	Baseline+Acc        — adds prep boxes of PCIe FPGAs; data still staged
//	                      through host DRAM (Figure 13).
//	Baseline+Acc+P2P    — direct SSD→FPGA→accelerator transfers bypassing
//	                      host DRAM, but devices remain grouped by type so
//	                      every transfer still crosses the root complex
//	                      (Figure 14).
//	…+Gen4              — same datapath on PCIe Gen4 (the bandwidth-only
//	                      counterfactual of Figure 19).
//	TrainBox            — train boxes co-locating SSDs, FPGAs and
//	                      accelerators under one switch, plus the Ethernet
//	                      prep-pool (Figures 15, 18).
//
// Box geometry follows Section V-D: eight accelerators per box, four
// accelerators and one FPGA per PEX8796-class switch, two NVMe SSDs per
// train box.
package arch

import (
	"fmt"

	"trainbox/internal/eth"
	"trainbox/internal/pcie"
	"trainbox/internal/storage"
	"trainbox/internal/units"
)

// Kind selects the server architecture.
type Kind int

// The evaluated architectures, in Figure 19's order.
const (
	Baseline Kind = iota
	BaselineAcc
	BaselineAccP2P
	BaselineAccP2PGen4
	TrainBoxNoPool
	TrainBox
)

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case BaselineAcc:
		return "B+Acc"
	case BaselineAccP2P:
		return "B+Acc+P2P"
	case BaselineAccP2PGen4:
		return "B+Acc+P2P+Gen4"
	case TrainBoxNoPool:
		return "TrainBox w/o prep-pool"
	case TrainBox:
		return "TrainBox"
	}
	return fmt.Sprintf("arch(%d)", int(k))
}

// Kinds lists all architectures in evaluation order.
func Kinds() []Kind {
	return []Kind{Baseline, BaselineAcc, BaselineAccP2P, BaselineAccP2PGen4, TrainBoxNoPool, TrainBox}
}

// UsesPrepAccelerators reports whether preparation is offloaded from the
// host CPUs.
func (k Kind) UsesPrepAccelerators() bool { return k != Baseline }

// UsesP2P reports whether the data path bypasses host DRAM.
func (k Kind) UsesP2P() bool {
	return k == BaselineAccP2P || k == BaselineAccP2PGen4 || k == TrainBoxNoPool || k == TrainBox
}

// Clustered reports whether devices are grouped into train boxes.
func (k Kind) Clustered() bool { return k == TrainBoxNoPool || k == TrainBox }

// HasPool reports whether the Ethernet prep-pool is available.
func (k Kind) HasPool() bool { return k == TrainBox }

// Generation returns the PCIe generation of the architecture.
func (k Kind) Generation() pcie.Generation {
	if k == BaselineAccP2PGen4 {
		return pcie.Gen4
	}
	return pcie.Gen3
}

// PrepDevice selects what executes data preparation in the offloaded
// architectures (Section V-B's device comparison, Figure 21).
type PrepDevice int

// Preparation device options.
const (
	PrepCPU PrepDevice = iota // host cores (baseline only)
	PrepFPGA
	PrepGPU
	PrepXeonPhi
)

func (d PrepDevice) String() string {
	switch d {
	case PrepCPU:
		return "cpu"
	case PrepFPGA:
		return "fpga"
	case PrepGPU:
		return "gpu"
	case PrepXeonPhi:
		return "xeon-phi"
	}
	return fmt.Sprintf("prep(%d)", int(d))
}

// Box geometry constants (Section V-D).
const (
	AccelsPerBox     = 8 // DGX-2 / Supermicro style
	AccelsPerSwitch  = 4 // PEX8796: five downlinks, one uplink
	FPGAsPerTrainBox = 2 // one per accelerator switch
	SSDsPerTrainBox  = 2
	SSDsPerSSDBox    = 4 // baseline SSD boxes; same SSD:accel density
	FPGAsPerPrepBox  = 8 // baseline+Acc prep boxes
)

// Link bandwidth overrides.
var (
	// SSDLinkBW is the NVMe x4 attachment.
	SSDLinkBW = 4 * units.GBps
	// PrepAccelLinkBW is the FPGA attachment. The paper's VCU1525-class
	// boards expose dual PCIe connectors; a single Gen3 x16 link cannot
	// physically carry RNN-S's prepared-tensor stream (≈29 GB/s for four
	// accelerators), so the model uses the dual-link 32 GB/s attachment.
	// This substitution is recorded in DESIGN.md.
	PrepAccelLinkBW = 32 * units.GBps
	// PoolEthernetBW is each FPGA's prep-pool attachment: dual 100 Gb/s
	// (Section V-D: "dual 100 Gbps").
	PoolEthernetBW = 25 * units.GBps
)

// RCCapacity returns the root complex's aggregate switching capacity
// (both directions summed) for a generation. The Gen3 value corresponds
// to a DGX-2-class host with twelve x16 root ports and is also the
// normalization base of Figure 10c.
func RCCapacity(gen pcie.Generation) units.BytesPerSec {
	return 12 * gen.LinkBandwidth()
}

// HostSpec describes a host's CPU and memory resources, the two host
// resources besides the root complex that the paper's bottleneck
// analysis tracks (Section III-C).
type HostSpec struct {
	Name string
	// Cores is the number of physical CPU cores.
	Cores int
	// MemoryBandwidth is the aggregate DRAM bandwidth.
	MemoryBandwidth units.BytesPerSec
}

// DGX2 is the paper's reference host: two-socket Xeon with 48 physical
// cores and 239 GB/s of memory bandwidth (Section III-B/III-C). Figure
// 10 normalizes every requirement to it.
func DGX2() HostSpec {
	return HostSpec{Name: "dgx-2", Cores: 48, MemoryBandwidth: 239 * units.GBps}
}

// Validate reports the first spec error, or nil.
func (h HostSpec) Validate() error {
	if h.Cores <= 0 {
		return fmt.Errorf("arch: host %s has %d cores", h.Name, h.Cores)
	}
	if h.MemoryBandwidth <= 0 {
		return fmt.Errorf("arch: host %s has non-positive memory bandwidth", h.Name)
	}
	return nil
}

// Config describes one system to build.
type Config struct {
	Kind      Kind
	NumAccels int
	// Prep selects the preparation device for offloaded architectures;
	// zero value means FPGA (PrepCPU is implied for Baseline).
	Prep PrepDevice
	// Host is the host spec; zero value means DGX-2.
	Host HostSpec
	// SSD is the SSD device spec; zero value means DefaultSSDSpec.
	SSD storage.SSDSpec
	// PoolFPGAs is the number of prep-pool devices available to this job
	// (TrainBox only); zero means a default of NumAccels/2.
	PoolFPGAs int
	// FPGAsPerBox overrides the number of preparation accelerators per
	// train box (clustered kinds only); zero means FPGAsPerTrainBox.
	// It exists for the provisioning ablation and the failure study:
	// how much in-box prep capacity a deployment has.
	FPGAsPerBox int
	// SSDsPerBox overrides the number of SSDs per train box (clustered
	// kinds only); zero means SSDsPerTrainBox. Used by the
	// failure-injection study.
	SSDsPerBox int
}

// maxAccels bounds Config.NumAccels: a built system costs about 0.7 KB
// per accelerator, and the rack planners search at most 4,096.
const maxAccels = 65536

// normalize fills defaults.
func (c Config) normalize() (Config, error) {
	if c.NumAccels <= 0 || c.NumAccels > maxAccels {
		return c, fmt.Errorf("arch: need 1 to %d accelerators, got %d", maxAccels, c.NumAccels)
	}
	if c.Host.Cores == 0 {
		c.Host = DGX2()
	}
	if err := c.Host.Validate(); err != nil {
		return c, err
	}
	if c.SSD.ReadBandwidth == 0 {
		c.SSD = storage.DefaultSSDSpec()
	}
	if c.Kind == Baseline {
		c.Prep = PrepCPU
	} else if c.Prep == PrepCPU {
		c.Prep = PrepFPGA
	}
	if c.Kind == TrainBox && c.PoolFPGAs == 0 {
		// Default pool sized the way the train initializer would: large
		// enough that the most prep-hungry Table I workload (RNN-S) can
		// reach the accelerator target (Section V-A sizes the pool from
		// required throughput, so an undersized pool is a config choice,
		// not a default).
		c.PoolFPGAs = c.NumAccels + c.NumAccels/2
	}
	if c.Kind != TrainBox {
		c.PoolFPGAs = 0
	}
	if c.FPGAsPerBox < 0 {
		return c, fmt.Errorf("arch: negative FPGAs per box %d", c.FPGAsPerBox)
	}
	if c.FPGAsPerBox == 0 {
		c.FPGAsPerBox = FPGAsPerTrainBox
	}
	if c.SSDsPerBox < 0 {
		return c, fmt.Errorf("arch: negative SSDs per box %d", c.SSDsPerBox)
	}
	if c.SSDsPerBox == 0 {
		c.SSDsPerBox = SSDsPerTrainBox
	}
	return c, nil
}

// TrainBoxGroup is one train box's device membership (clustered kinds).
type TrainBoxGroup struct {
	Switch pcie.NodeID
	Accels []pcie.NodeID
	FPGAs  []pcie.NodeID
	SSDs   []pcie.NodeID
}

// System is a built architecture: the PCIe topology plus device roles.
type System struct {
	Config Config
	Topo   *pcie.Topology
	// Root is the root complex; in this model the host CPUs/DRAM sit
	// behind it, so host-staged transfers terminate here.
	Root pcie.NodeID
	// Device roles.
	Accels []pcie.NodeID
	SSDs   []pcie.NodeID
	// PrepAccels is empty for Baseline (CPU prep).
	PrepAccels []pcie.NodeID
	// Boxes is non-empty only for clustered kinds.
	Boxes []TrainBoxGroup
	// RCCap is the root-complex aggregate capacity.
	RCCap units.BytesPerSec
	// PoolNet is the prep-pool Ethernet network (TrainBox only).
	PoolNet *eth.Network
}

// Build constructs the system for a configuration.
func Build(cfg Config) (*System, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Kind.Clustered() {
		return buildClustered(cfg)
	}
	return buildFlat(cfg)
}

// buildFlat constructs Baseline and the B+Acc variants: device-type
// boxes hanging off the root complex (Figure 7).
func buildFlat(cfg Config) (*System, error) {
	gen := cfg.Kind.Generation()
	b := pcie.NewBuilder(gen)
	root := b.Root("rc")
	sys := &System{Config: cfg, Root: root, RCCap: RCCapacity(gen)}

	// Accelerator boxes: a box switch with two 4-accel switches.
	numAccBoxes := (cfg.NumAccels + AccelsPerBox - 1) / AccelsPerBox
	remaining := cfg.NumAccels
	for bx := 0; bx < numAccBoxes; bx++ {
		box := b.Switch(root, fmt.Sprintf("accbox%d", bx))
		for sw := 0; sw < 2 && remaining > 0; sw++ {
			sub := b.Switch(box, fmt.Sprintf("accbox%d/sw%d", bx, sw))
			for i := 0; i < AccelsPerSwitch && remaining > 0; i++ {
				sys.Accels = append(sys.Accels, b.Device(sub, pcie.KindNNAccel,
					fmt.Sprintf("acc%d", len(sys.Accels))))
				remaining--
			}
		}
	}

	// SSD boxes: same SSD-per-accelerator density as train boxes.
	numSSDs := maxInt(SSDsPerTrainBox, cfg.NumAccels*SSDsPerTrainBox/AccelsPerBox)
	numSSDBoxes := (numSSDs + SSDsPerSSDBox - 1) / SSDsPerSSDBox
	left := numSSDs
	for bx := 0; bx < numSSDBoxes; bx++ {
		box := b.Switch(root, fmt.Sprintf("ssdbox%d", bx))
		for i := 0; i < SSDsPerSSDBox && left > 0; i++ {
			sys.SSDs = append(sys.SSDs, b.DeviceBW(box, pcie.KindSSD,
				fmt.Sprintf("ssd%d", len(sys.SSDs)), SSDLinkBW))
			left--
		}
	}

	// Prep boxes for the offloaded variants.
	if cfg.Kind.UsesPrepAccelerators() {
		numPrep := prepDeviceCount(cfg.Prep, cfg.NumAccels)
		numPrepBoxes := (numPrep + FPGAsPerPrepBox - 1) / FPGAsPerPrepBox
		leftP := numPrep
		linkBW := PrepAccelLinkBW
		if cfg.Prep != PrepFPGA {
			linkBW = gen.LinkBandwidth() // GPUs/Phi on a standard x16
		}
		for bx := 0; bx < numPrepBoxes; bx++ {
			box := b.Switch(root, fmt.Sprintf("prepbox%d", bx))
			for i := 0; i < FPGAsPerPrepBox && leftP > 0; i++ {
				sys.PrepAccels = append(sys.PrepAccels, b.DeviceBW(box, pcie.KindPrepAccel,
					fmt.Sprintf("prep%d", len(sys.PrepAccels)), linkBW))
				leftP--
			}
		}
	}

	sys.Topo = b.Build()
	if err := sys.Topo.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

// buildClustered constructs TrainBox: train boxes each holding SSDs,
// FPGAs, and accelerators (Figure 18), plus the Ethernet prep-pool.
func buildClustered(cfg Config) (*System, error) {
	gen := cfg.Kind.Generation()
	b := pcie.NewBuilder(gen)
	root := b.Root("rc")
	sys := &System{Config: cfg, Root: root, RCCap: RCCapacity(gen)}

	numBoxes := (cfg.NumAccels + AccelsPerBox - 1) / AccelsPerBox
	remaining := cfg.NumAccels
	for bx := 0; bx < numBoxes; bx++ {
		box := b.Switch(root, fmt.Sprintf("trainbox%d", bx))
		group := TrainBoxGroup{Switch: box}
		var subs []pcie.NodeID
		for sw := 0; sw < 2 && remaining > 0; sw++ {
			sub := b.Switch(box, fmt.Sprintf("trainbox%d/sw%d", bx, sw))
			subs = append(subs, sub)
			for i := 0; i < AccelsPerSwitch && remaining > 0; i++ {
				id := b.Device(sub, pcie.KindNNAccel, fmt.Sprintf("acc%d", len(sys.Accels)))
				sys.Accels = append(sys.Accels, id)
				group.Accels = append(group.Accels, id)
				remaining--
			}
		}
		// Preparation accelerators spread round-robin across the box's
		// accelerator switches (default one per switch, Figure 18).
		for i := 0; i < cfg.FPGAsPerBox; i++ {
			fp := b.DeviceBW(subs[i%len(subs)], pcie.KindPrepAccel,
				fmt.Sprintf("fpga%d", len(sys.PrepAccels)), PrepAccelLinkBW)
			sys.PrepAccels = append(sys.PrepAccels, fp)
			group.FPGAs = append(group.FPGAs, fp)
		}
		for i := 0; i < cfg.SSDsPerBox; i++ {
			id := b.DeviceBW(box, pcie.KindSSD, fmt.Sprintf("ssd%d", len(sys.SSDs)), SSDLinkBW)
			sys.SSDs = append(sys.SSDs, id)
			group.SSDs = append(group.SSDs, id)
		}
		sys.Boxes = append(sys.Boxes, group)
	}

	sys.Topo = b.Build()
	if err := sys.Topo.Validate(); err != nil {
		return nil, err
	}

	if cfg.Kind.HasPool() {
		ports := len(sys.PrepAccels) + cfg.PoolFPGAs
		net, err := eth.NewNetwork(eth.LinkSpec{Bandwidth: PoolEthernetBW}, eth.SwitchSpec{Ports: ports})
		if err != nil {
			return nil, err
		}
		sys.PoolNet = net
	}
	return sys, nil
}

// prepDeviceCount returns how many preparation devices an offloaded
// architecture deploys for n accelerators.
// Every device type deploys at the paper's 1:4 device:accelerator ratio
// (FPGAs per Figure 18's geometry, GPUs per Figure 21's "1:4 ratio").
func prepDeviceCount(_ PrepDevice, n int) int {
	c := (n + AccelsPerSwitch - 1) / AccelsPerSwitch
	if c < 1 {
		c = 1
	}
	return c
}

// BoxOf returns the train box index containing the accelerator, or -1
// for flat systems.
func (s *System) BoxOf(accel pcie.NodeID) int {
	for i, g := range s.Boxes {
		for _, a := range g.Accels {
			if a == accel {
				return i
			}
		}
	}
	return -1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
