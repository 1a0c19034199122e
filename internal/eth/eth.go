// Package eth models the dedicated Ethernet data-preparation network
// that connects train-box FPGAs to the prep-pool (Section IV-D).
//
// The paper's argument for Ethernet is bandwidth parity with PCIe
// (100 Gb/s = 12.5 GB/s vs 16 GB/s) on a channel that does not contend
// with the PCIe tree; next-batch prefetching hides its latency. The model
// therefore only needs per-port bandwidth and a non-blocking top-of-rack
// switch with an aggregate ceiling.
package eth

import (
	"fmt"
	"sync"

	"trainbox/internal/units"
)

// LinkSpec describes one Ethernet port.
type LinkSpec struct {
	Bandwidth units.BytesPerSec
}

// Link100G is the 100 Gb/s port on the paper's FPGAs (12.5 GB/s).
var Link100G = LinkSpec{Bandwidth: 12.5 * units.GBps}

// SwitchSpec describes a top-of-rack switch.
type SwitchSpec struct {
	Ports int
	// AggregateBandwidth caps total traffic through the fabric; 0 means
	// fully non-blocking (ports × link bandwidth).
	AggregateBandwidth units.BytesPerSec
}

// Network is an analytical model of the prep-pool network: a set of
// same-speed ports behind one switch. Bandwidth reservations are safe
// for concurrent use.
type Network struct {
	link LinkSpec
	sw   SwitchSpec

	mu       sync.Mutex
	reserved units.BytesPerSec
}

// NewNetwork builds a prep-pool network with the given port count.
func NewNetwork(link LinkSpec, sw SwitchSpec) (*Network, error) {
	if link.Bandwidth <= 0 {
		return nil, fmt.Errorf("eth: non-positive link bandwidth")
	}
	if sw.Ports <= 0 {
		return nil, fmt.Errorf("eth: switch needs at least one port")
	}
	return &Network{link: link, sw: sw}, nil
}

// Link returns the per-port spec.
func (n *Network) Link() LinkSpec { return n.link }

// Capacity returns the fabric's total reservable bandwidth: the switch's
// aggregate ceiling, or ports × link bandwidth when the switch is
// non-blocking.
func (n *Network) Capacity() units.BytesPerSec {
	if n.sw.AggregateBandwidth > 0 {
		return n.sw.AggregateBandwidth
	}
	return n.link.Bandwidth * units.BytesPerSec(n.sw.Ports)
}

// Reserved returns the bandwidth currently held by live reservations.
func (n *Network) Reserved() units.BytesPerSec {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reserved
}

// Reservation is a claim on a slice of the fabric's bandwidth, granted
// by Reserve and returned with Release. The prep-pool runtime holds one
// per leased device so a grant can never outrun the network.
type Reservation struct {
	net      *Network
	bw       units.BytesPerSec
	released bool
}

// Reserve claims bw of the fabric's capacity, failing when the claim
// would exceed it (or when bw is non-positive). Every successful Reserve
// must be paired with exactly one Release.
func (n *Network) Reserve(bw units.BytesPerSec) (*Reservation, error) {
	if bw <= 0 {
		return nil, fmt.Errorf("eth: non-positive reservation %v", bw)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.reserved+bw > n.Capacity() {
		return nil, fmt.Errorf("eth: reserving %v exceeds capacity (%v of %v already reserved)",
			bw, n.reserved, n.Capacity())
	}
	n.reserved += bw
	return &Reservation{net: n, bw: bw}, nil
}

// Release returns the reservation's bandwidth to the fabric. A second
// Release on the same reservation is an accounting bug and is reported
// without corrupting the reserved total.
func (r *Reservation) Release() error {
	if r == nil {
		return fmt.Errorf("eth: release of nil reservation")
	}
	r.net.mu.Lock()
	defer r.net.mu.Unlock()
	if r.released {
		return fmt.Errorf("eth: reservation released twice")
	}
	if r.net.reserved < r.bw {
		return fmt.Errorf("eth: release of %v exceeds reserved total %v", r.bw, r.net.reserved)
	}
	r.released = true
	r.net.reserved -= r.bw
	return nil
}
