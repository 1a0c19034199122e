package experiments

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/collective"
	"trainbox/internal/eth"
	"trainbox/internal/report"
	"trainbox/internal/workload"
)

// SyncStudyResult carries the gradient-sync ablation: per-box-count
// latency of every topology's model and the in-network aggregation
// headline.
type SyncStudyResult struct {
	Table *report.Table
	// RingMs / PSMs / InNetworkMs are the 256-accel sync latencies in
	// milliseconds.
	RingMs, PSMs, InNetworkMs float64
	// InNetworkSpeedup is the host Ethernet ring's latency over
	// InNetworkMs at 256 accels: what SmartNIC aggregation buys over
	// running a host ring on the same Ethernet ports.
	InNetworkSpeedup float64
}

// SyncStudy prices the gradient-sync topologies against each other
// across box counts — the scenario space the paper closes with "ring
// sync is solved". Every cell is an analytical model: ring, tree, and
// halving-doubling on the NVLink-class accelerator fabric; the parameter
// server with a dedicated server tier (one shard box per train box,
// reached over worker links); in-network aggregation offloading the
// reduce into the prep network's switch behind compressing SmartNICs,
// compared against a host ring over the same Ethernet ports. Only the
// ring also runs (collective.NewRing).
func SyncStudy() (SyncStudyResult, error) {
	w, err := workload.ByName("Inception-v4")
	if err != nil {
		return SyncStudyResult{}, err
	}

	ring := collective.DefaultRingModel()
	tree := collective.TreeModel{LinkBandwidth: ring.LinkBandwidth, HopLatency: ring.HopLatency}
	halving := collective.HalvingDoublingModel{LinkBandwidth: ring.LinkBandwidth, HopLatency: ring.HopLatency}
	// Host ring over the prep network's 100G ports: the no-offload way
	// to sync across boxes on Ethernet.
	ethRing := collective.RingModel{LinkBandwidth: eth.Link100G.Bandwidth, ChunkBytes: ring.ChunkBytes, HopLatency: 1e-6}

	t := report.NewTable(
		fmt.Sprintf("Study — gradient-sync backends, %s (%s model), latency per sync in ms", w.Name, w.ModelBytes),
		"boxes", "accels", "ring", "tree", "halving", "ps", "eth ring", "in-network", "best")

	res := SyncStudyResult{Table: t}
	ms := func(s float64) float64 { return s * 1e3 }
	for _, boxes := range []int{2, 8, 32} {
		n := boxes * arch.AccelsPerBox
		// PS tier sized one shard box per train box, reached over the
		// same worker-link class as the ring.
		ps := collective.ParamServerModel{
			Shards:          boxes,
			WorkerBandwidth: ring.LinkBandwidth,
			ServerBandwidth: ring.LinkBandwidth,
			HopLatency:      ring.HopLatency,
		}
		net, err := eth.NewNetwork(eth.Link100G, eth.SwitchSpec{Ports: n})
		if err != nil {
			return SyncStudyResult{}, err
		}
		agg, err := net.InNetwork(eth.DefaultAggregationSpec())
		if err != nil {
			return SyncStudyResult{}, err
		}

		lat := map[string]float64{
			"ring":       ring.Latency(n, w.ModelBytes),
			"tree":       tree.Latency(n, w.ModelBytes),
			"halving":    halving.Latency(n, w.ModelBytes),
			"ps":         ps.Latency(n, w.ModelBytes),
			"in-network": agg.SyncLatency(n, w.ModelBytes),
		}
		hostEth := ethRing.Latency(n, w.ModelBytes)
		best := "ring"
		for _, name := range []string{"tree", "halving", "ps", "in-network"} {
			if lat[name] < lat[best] {
				best = name
			}
		}
		t.AddRowf(boxes, n, ms(lat["ring"]), ms(lat["tree"]), ms(lat["halving"]),
			ms(lat["ps"]), ms(hostEth), ms(lat["in-network"]), best)

		if n == workload.TargetAccelerators {
			res.RingMs = ms(lat["ring"])
			res.PSMs = ms(lat["ps"])
			res.InNetworkMs = ms(lat["in-network"])
			if lat["in-network"] > 0 {
				res.InNetworkSpeedup = hostEth / lat["in-network"]
			}
		}
	}

	return res, nil
}
