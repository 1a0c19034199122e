package collective

import "trainbox/internal/units"

// ParamServerModel is the analytical latency model of the synchronous
// parameter-server round, the CentralModel generalized to a sharded
// server tier: each of the two half-rounds (push-gradient,
// pull-weight) is limited by the slower of a worker's own link
// (modelBytes/WorkerBandwidth — every worker moves the full model) and
// a shard server's ingest/egress (n·modelBytes/(Shards·ServerBandwidth)
// — the n·modelBytes aggregate splits across Shards server links).
// Shards → n·ServerBandwidth/WorkerBandwidth recovers all-reduce-class
// scaling; Shards = 1 degenerates to CentralModel.
type ParamServerModel struct {
	// Shards is the server-replica count the parameter space is split
	// across; values < 1 behave as 1.
	Shards int
	// WorkerBandwidth is a worker's link bandwidth toward the PS tier.
	WorkerBandwidth units.BytesPerSec
	// ServerBandwidth is one shard replica's link bandwidth.
	ServerBandwidth units.BytesPerSec
	// HopLatency is the fixed per-half-round cost in seconds.
	HopLatency float64
}

// Latency returns the synchronous PS round time for n workers.
func (m ParamServerModel) Latency(n int, modelBytes units.Bytes) float64 {
	if n <= 1 || modelBytes <= 0 {
		return 0
	}
	shards := m.Shards
	if shards < 1 {
		shards = 1
	}
	worker := float64(modelBytes) / float64(m.WorkerBandwidth)
	server := float64(n) * float64(modelBytes) / (float64(shards) * float64(m.ServerBandwidth))
	half := worker
	if server > half {
		half = server
	}
	return 2 * (half + m.HopLatency)
}
