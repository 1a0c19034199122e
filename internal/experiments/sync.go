package experiments

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/collective"
	"trainbox/internal/eth"
	"trainbox/internal/report"
	"trainbox/internal/workload"
)

// syncStudy prices the gradient-sync topologies against each other
// across box counts — the scenario space the paper closes with "ring
// sync is solved". Every cell is an analytical model: ring, tree, and
// halving-doubling on the NVLink-class accelerator fabric; the parameter
// server with a dedicated server tier (one shard box per train box,
// reached over worker links); in-network aggregation offloading the
// reduce into the prep network's switch behind compressing SmartNICs,
// compared against a host ring over the same Ethernet ports. Only the
// ring also runs (collective.NewRing). Its headlines are the 256-accel
// ring, ps and in-network latencies in ms, and the in-network speedup:
// the host Ethernet ring's latency over in-network's, what SmartNIC
// aggregation buys over running a host ring on the same ports.
func syncStudy(workload.Workload) (Result, error) {
	w, err := workload.ByName("Inception-v4")
	if err != nil {
		return Result{}, err
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

	h := map[string]float64{}
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
			return Result{}, err
		}
		agg, err := net.InNetwork(eth.DefaultAggregationSpec())
		if err != nil {
			return Result{}, err
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
			h["ring ms"] = ms(lat["ring"])
			h["ps ms"] = ms(lat["ps"])
			h["in-network ms"] = ms(lat["in-network"])
			h["in-network speedup"] = hostEth / lat["in-network"]
		}
	}
	t.Title += fmt.Sprintf(" — in-network %.1f× over host eth ring at 256", h["in-network speedup"])
	return Result{Tables: []*report.Table{t}, Headlines: h}, nil
}
