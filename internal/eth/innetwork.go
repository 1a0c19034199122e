package eth

import (
	"fmt"

	"trainbox/internal/units"
)

// AggregationSpec configures SmartNIC-style in-network gradient
// aggregation (FPGA AI SmartNICs, PAPERS.md): every worker streams its
// gradients out of a NIC that compresses them before they hit the wire,
// and the top-of-rack switch reduces the streams on the fly instead of
// forwarding them, so each port carries one compressed model copy per
// direction regardless of worker count.
type AggregationSpec struct {
	// Compression divides the wire volume: the NIC ships
	// modelBytes/Compression per sync (e.g. 4 for fp32→int8-style
	// gradient quantization). Must be ≥ 1; 1 means uncompressed.
	Compression float64
	// ReduceBandwidth is the per-port rate the switch's reduce engine
	// sustains; 0 means it keeps up with line rate.
	ReduceBandwidth units.BytesPerSec
	// RoundLatency is the fixed per-sync cost in seconds (pipeline
	// setup, final broadcast flit).
	RoundLatency float64
}

// DefaultAggregationSpec returns the reproduction's SmartNIC model: 4×
// gradient compression, a reduce engine at line rate, and a 2 µs fixed
// round cost.
func DefaultAggregationSpec() AggregationSpec {
	return AggregationSpec{Compression: 4, RoundLatency: 2e-6}
}

// InNetwork prices gradient synchronization offloaded into the prep
// network's switch, against the same port and aggregate limits every
// other eth consumer sees. Obtain one with Network.InNetwork.
type InNetwork struct {
	net  *Network
	spec AggregationSpec
}

// InNetwork binds an aggregation spec to the network.
func (n *Network) InNetwork(spec AggregationSpec) (*InNetwork, error) {
	if spec.Compression < 1 {
		return nil, fmt.Errorf("eth: in-network compression %v must be >= 1", spec.Compression)
	}
	if spec.ReduceBandwidth < 0 {
		return nil, fmt.Errorf("eth: negative reduce bandwidth %v", spec.ReduceBandwidth)
	}
	if spec.RoundLatency < 0 {
		return nil, fmt.Errorf("eth: negative round latency %v", spec.RoundLatency)
	}
	return &InNetwork{net: n, spec: spec}, nil
}

// portRate returns the per-port rate one of `workers` concurrent
// aggregation streams sustains: line rate, capped by the reduce engine
// and by an aggregate switch ceiling split across the workers.
func (a *InNetwork) portRate(workers int) units.BytesPerSec {
	bw := a.net.link.Bandwidth
	if a.spec.ReduceBandwidth > 0 && a.spec.ReduceBandwidth < bw {
		bw = a.spec.ReduceBandwidth
	}
	if agg := a.net.sw.AggregateBandwidth; agg > 0 && workers > 0 {
		if share := agg / units.BytesPerSec(workers); share < bw {
			bw = share
		}
	}
	return bw
}

// SyncLatency returns the in-network all-reduce time for `workers`
// ranks: each port uploads one compressed model copy into the reduce
// engine and downloads the reduced copy, fully overlapped across
// workers because the switch aggregates in flight. Compare with a host
// ring over the same ports (collective.RingModel at Link().Bandwidth),
// which moves 2·(n−1)/n uncompressed copies per port instead.
func (a *InNetwork) SyncLatency(workers int, modelBytes units.Bytes) float64 {
	if workers <= 1 || modelBytes <= 0 {
		return 0
	}
	wire := float64(modelBytes) / a.spec.Compression
	return 2*wire/float64(a.portRate(workers)) + a.spec.RoundLatency
}
