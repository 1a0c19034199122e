package collective

import (
	"math"

	"trainbox/internal/units"
)

// HalvingDoublingModel is the analytical latency model: 2·log₂(n) steps;
// the i-th reduce-scatter step moves size/2^i bytes, summing to
// 2·(n−1)/n·size of traffic, plus a fixed cost per step.
type HalvingDoublingModel struct {
	LinkBandwidth units.BytesPerSec
	HopLatency    float64
}

// Latency returns the all-reduce time for a power-of-two n (rounded up
// internally for other n, matching the pre-phase cost direction).
func (m HalvingDoublingModel) Latency(n int, modelBytes units.Bytes) float64 {
	if n <= 1 || modelBytes <= 0 {
		return 0
	}
	levels := math.Ceil(math.Log2(float64(n)))
	transfer := 2 * (1 - 1/math.Pow(2, levels)) * float64(modelBytes) / float64(m.LinkBandwidth)
	return transfer + 2*levels*m.HopLatency
}
