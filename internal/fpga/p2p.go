package fpga

import (
	"context"
	"fmt"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/memframe"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/pipeline"
	"trainbox/internal/storage"
)

// P2PHandler is the functional model of Figure 17's P2P module: the
// FPGA fetches stored items from SSDs through its own NVMe command
// generator (internal/nvme, after the paper's DCS-engine) and runs the
// preparation engine on them — the SSD→FPGA half of the device-centric
// datapath, with no host software involved.
// Batches reach it through Cluster, which dispatches one sample at a
// time to whichever member device is free.
type P2PHandler struct {
	client *nvme.Client
	engine *Emulator
	inj    faults.Injector

	// scratches models the engine's on-device working set: each prepare
	// draws a pooled dataprep.Scratch so repeated offloads recycle their
	// decode/augment buffers. Their outputs land in out, the device's
	// ring of DMA-target frames: every sample remembers it, and
	// dataprep.Recycle hands the frame back once the consumer (train's
	// extract stage) has copied out of it. A caller that never recycles
	// keeps its samples; their frames are simply not reused.
	scratches *pipeline.Pool[*dataprep.Scratch]
	out       *memframe.Set

	mSamples *metrics.Counter   // fpga.p2p.samples_prepared
	mLatency *metrics.Histogram // fpga.p2p.sample_ns
}

// NewP2PHandler binds an FPGA engine to an SSD namespace with a queue
// pair of the given depth, configured by functional options
// (WithMetrics, WithFaults).
func NewP2PHandler(ns *nvme.Namespace, engine *Emulator, queueDepth int, opts ...Option) (*P2PHandler, error) {
	if ns == nil || engine == nil {
		return nil, fmt.Errorf("fpga: p2p handler needs a namespace and an engine")
	}
	client, err := nvme.NewClient(ns, queueDepth)
	if err != nil {
		return nil, err
	}
	h := &P2PHandler{client: client, engine: engine, out: memframe.NewSet()}
	h.scratches = pipeline.NewPool(func() *dataprep.Scratch { return dataprep.NewScratchWithOutput(h.out) })
	for _, opt := range opts {
		if err := opt.applyHandler(h); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// prepare runs the engine on one fetched object with a pooled working
// set, into one of the device's output frames.
func (h *P2PHandler) prepare(obj storage.Object, seed int64) dataprep.Prepared {
	s := h.scratches.Get()
	defer h.scratches.Put(s)
	return s.Prepare(h.engine, obj, seed)
}

// OutputStats reports the device's output frame pools' counters: after
// a consumer has recycled everything it was handed, Gets == Puts.
func (h *P2PHandler) OutputStats() memframe.Stats { return h.out.Stats() }

// readObject is the handler's faultable NVMe read: the injector (if
// any) rules on (key, attempt) first, then the real read runs. attempt
// lets retrying dispatchers draw fresh fault decisions.
func (h *P2PHandler) readObject(ctx context.Context, key string, attempt int) (storage.Object, error) {
	if err := faults.Apply(ctx, h.inj, faults.Op{Name: "fpga.p2p.read", Key: key, Attempt: attempt}); err != nil {
		return storage.Object{}, fmt.Errorf("fpga: p2p read %q: %w", key, err)
	}
	return h.client.ReadObject(key)
}

// prepareSample fetches the keyed object over NVMe and prepares it with
// the FPGA engine — the full SSD→FPGA→(accelerator) per-sample path.
// The attempt index lets re-dispatched samples draw fresh fault
// decisions; ctx carries the batch's cancellation.
func (h *P2PHandler) prepareSample(ctx context.Context, key string, seed int64, attempt int) dataprep.Prepared {
	start := time.Now()
	obj, err := h.readObject(ctx, key, attempt)
	if err != nil {
		return dataprep.Prepared{Key: key, Err: err}
	}
	p := h.prepare(obj, seed)
	h.mSamples.Inc()
	h.mLatency.ObserveDuration(time.Since(start))
	return p
}
