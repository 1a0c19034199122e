package collective

import (
	"math"

	"trainbox/internal/units"
)

// TreeModel is the analytical latency model of tree all-reduce: a reduce
// sweep and a broadcast sweep, each of ⌈log₂ n⌉ levels moving the full
// model over one link.
type TreeModel struct {
	LinkBandwidth units.BytesPerSec
	HopLatency    float64
}

// Latency returns the tree all-reduce time for n ranks.
func (m TreeModel) Latency(n int, modelBytes units.Bytes) float64 {
	if n <= 1 || modelBytes <= 0 {
		return 0
	}
	levels := math.Ceil(math.Log2(float64(n)))
	per := float64(modelBytes)/float64(m.LinkBandwidth) + m.HopLatency
	return 2 * levels * per
}

// CrossoverBytes returns the model size below which the tree beats the
// ring for n ranks (solving tree latency < ring latency). It returns 0
// when the tree never wins.
func CrossoverBytes(ring RingModel, tree TreeModel, n int) units.Bytes {
	if n <= 2 {
		return 0
	}
	// ring: 2(n-1)/n·S/Br + 2(n-1)·h_r ; tree: 2L·S/Bt + 2L·h_t.
	levels := math.Ceil(math.Log2(float64(n)))
	ringBW := 2 * float64(n-1) / float64(n) / float64(ring.LinkBandwidth)
	treeBW := 2 * levels / float64(tree.LinkBandwidth)
	ringFix := 2 * float64(n-1) * ring.HopLatency
	treeFix := 2 * levels * tree.HopLatency
	// tree < ring ⇔ S·(treeBW − ringBW) < ringFix − treeFix.
	dBW := treeBW - ringBW
	dFix := ringFix - treeFix
	if dBW <= 0 {
		// Tree is at least as bandwidth-efficient (cannot happen with
		// equal links and n > 2); treat as always winning.
		return units.Bytes(math.Inf(1))
	}
	if dFix <= 0 {
		return 0
	}
	return units.Bytes(dFix / dBW)
}
