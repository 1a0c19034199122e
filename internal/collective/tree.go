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
