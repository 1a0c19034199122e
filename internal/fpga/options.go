package fpga

import (
	"fmt"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/metrics"
	"trainbox/internal/storage"
)

// Option is a construction-time knob for the package's runtime types,
// accepted by NewCluster and NewP2PHandler. One option type serves both
// constructors so shared knobs (WithMetrics, WithFaults) read the same
// everywhere; an option that does not apply to the type being built
// fails construction with a descriptive error instead of being silently
// ignored.
type Option struct {
	name    string
	cluster func(*Cluster) error
	handler func(*P2PHandler) error
}

func (o Option) applyCluster(c *Cluster) error {
	if o.cluster == nil {
		return fmt.Errorf("fpga: option %s does not apply to a Cluster", o.name)
	}
	return o.cluster(c)
}

func (o Option) applyHandler(h *P2PHandler) error {
	if o.handler == nil {
		return fmt.Errorf("fpga: option %s does not apply to a P2PHandler", o.name)
	}
	return o.handler(h)
}

// WithFallback attaches the cluster's host data-preparation path: when
// every pooled device is ejected (or a sample has exhausted its pool
// attempts), the sample is prepared by exec over store instead. Because
// per-sample seeds depend only on (dataset seed, key, epoch), degraded
// batches remain bit-identical. A cluster with a fallback may be built
// over zero devices (pure degraded mode) — the form the dynamic
// prep-pool uses for jobs that currently hold no leases.
func WithFallback(exec *dataprep.Executor, store *storage.Store) Option {
	return Option{name: "WithFallback", cluster: func(c *Cluster) error {
		if exec == nil || store == nil {
			return fmt.Errorf("fpga: WithFallback needs an executor and a store")
		}
		c.fbExec, c.fbStore = exec, store
		return nil
	}}
}

// WithName scopes the cluster's telemetry: metrics report under
// "fpga.pool.<name>.*" and its dispatch pipeline under
// "pipeline.fpga-pool-<name>.*", so several clusters (one per job in a
// shared prep-pool) can share a registry without colliding. The empty
// default keeps the legacy unscoped "fpga.pool.*" names.
func WithName(name string) Option {
	return Option{name: "WithName", cluster: func(c *Cluster) error {
		c.name = name
		return nil
	}}
}

// WithMetrics attaches a registry. On a cluster: dispatched jobs,
// per-device utilization, resilience counters, and live pool size under
// "fpga.pool[.<name>].*", plus the dispatch pipeline under
// "pipeline.fpga-pool[-<name>].*". On a P2P handler: per-sample device
// latency and sample counts under "fpga.p2p.*".
func WithMetrics(reg *metrics.Registry) Option {
	return Option{
		name: "WithMetrics",
		cluster: func(c *Cluster) error {
			c.reg = reg
			return nil
		},
		handler: func(h *P2PHandler) error {
			h.mSamples = reg.Counter("fpga.p2p.samples_prepared")
			h.mLatency = reg.Histogram("fpga.p2p.sample_ns")
			return nil
		},
	}
}

// WithFaults attaches a fault injector. On a P2P handler it is consulted
// before every NVMe read the handler issues (op name "fpga.p2p.read") —
// the knob chaos tests turn to make one device flaky or dead. On a
// cluster it is attached to every member device that does not already
// carry its own injector — the "whole pool is flaky" configuration.
func WithFaults(inj faults.Injector) Option {
	return Option{
		name: "WithFaults",
		cluster: func(c *Cluster) error {
			for _, d := range c.devices {
				if d.h.inj == nil {
					d.h.inj = inj
				}
			}
			return nil
		},
		handler: func(h *P2PHandler) error {
			h.inj = inj
			return nil
		},
	}
}
