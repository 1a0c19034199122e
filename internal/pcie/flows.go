package pcie

import "trainbox/internal/units"

// LinkLoad accumulates, for each directional link, the total bytes per
// unit that the given flows push across it when each flow i carries
// perUnit[i] bytes per unit of work (e.g. bytes per training sample).
// The result maps each directional link to its per-unit byte load; the
// maximum over links of load/bandwidth is the per-unit fabric time, whose
// reciprocal is the fabric-limited unit rate.
type LinkLoad struct {
	topo  *Topology
	loads map[Segment]float64
}

// NewLinkLoad returns an empty accumulator for the topology.
func NewLinkLoad(t *Topology) *LinkLoad {
	return &LinkLoad{topo: t, loads: map[Segment]float64{}}
}

// AddTransfer routes bytes from src to dst and charges every directional
// link on the path.
func (l *LinkLoad) AddTransfer(src, dst NodeID, bytes units.Bytes) {
	for _, s := range l.topo.Route(src, dst) {
		l.loads[s] += float64(bytes)
	}
}

// MaxUnitTime returns the largest load/bandwidth across links — the time
// the busiest link needs per unit of work — along with that link's child
// node ID and direction. With no recorded load it returns (0, -1, Up).
func (l *LinkLoad) MaxUnitTime() (seconds float64, link NodeID, dir Direction) {
	link = -1
	for k, bytes := range l.loads {
		t := bytes / float64(l.topo.links[k.Link].Bandwidth)
		if t > seconds {
			seconds, link, dir = t, k.Link, k.Direction
		}
	}
	return seconds, link, dir
}

// Load returns the accumulated per-unit bytes on one directional link.
func (l *LinkLoad) Load(link NodeID, dir Direction) units.Bytes {
	return units.Bytes(l.loads[Segment{link, dir}])
}

// RootComplexLoad sums the per-unit bytes crossing the root complex in
// both directions — the quantity Figure 10c normalizes. A byte that both
// enters and leaves the RC (e.g. SSD→host→accelerator) is counted on each
// crossing, matching how the paper attributes RC pressure.
func (l *LinkLoad) RootComplexLoad() units.Bytes {
	var total float64
	root := l.topo.root
	for k, bytes := range l.loads {
		if l.topo.nodes[k.Link].Parent == root {
			total += bytes
		}
	}
	return units.Bytes(total)
}
