package fpga

import (
	"context"
	"fmt"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
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
//
// Batch preparation runs on the staged-pipeline runtime: an nvme-read
// stage whose bounded queue mirrors the NVMe queue depth feeds the
// prep-engine stage, so storage reads overlap engine time exactly the
// way the hardware pipeline overlaps them.
type P2PHandler struct {
	client *nvme.Client
	engine *Emulator
	depth  int
	inj    faults.Injector
	stats  pipeline.StatsSet

	// scratches models the engine's on-device working set: each prepare
	// draws a pooled dataprep.Scratch so repeated offloads recycle their
	// decode/augment buffers. Outputs are always freshly allocated
	// (plain NewScratch, no shared output pool) so callers — including
	// the bit-identity oracles — may hold results indefinitely.
	scratches *pipeline.Pool[*dataprep.Scratch]

	reg      *metrics.Registry
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
	h := &P2PHandler{client: client, engine: engine, depth: queueDepth,
		scratches: pipeline.NewPool(dataprep.NewScratch)}
	for _, opt := range opts {
		if err := opt.applyHandler(h); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// prepare runs the engine on one fetched object with a pooled working
// set.
func (h *P2PHandler) prepare(obj storage.Object, seed int64) dataprep.Prepared {
	s := h.scratches.Get()
	defer h.scratches.Put(s)
	return h.engine.Prepare(obj, seed, s)
}

// readObject is the handler's faultable NVMe read: the injector (if
// any) rules on (key, attempt) first, then the real read runs. attempt
// lets retrying dispatchers draw fresh fault decisions.
func (h *P2PHandler) readObject(ctx context.Context, key string, attempt int) (storage.Object, error) {
	if err := faults.Apply(ctx, h.inj, faults.Op{Name: "fpga.p2p.read", Key: key, Attempt: attempt}); err != nil {
		return storage.Object{}, fmt.Errorf("fpga: p2p read %q: %w", key, err)
	}
	return h.client.ReadObject(key)
}

// PrepareByKey fetches the keyed object over NVMe and prepares it with
// the FPGA engine — the full SSD→FPGA→(accelerator) per-sample path.
func (h *P2PHandler) PrepareByKey(key string, seed int64) dataprep.Prepared {
	return h.prepareSample(context.Background(), key, seed, 0)
}

// prepareSample is PrepareByKey with an explicit context and attempt
// index, the form pool dispatchers use so re-dispatched samples draw
// fresh fault decisions and honour batch cancellation.
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

// Stats returns the handler's cumulative per-stage pipeline counters
// across every batch it prepared.
func (h *P2PHandler) Stats() []pipeline.StageStats {
	return h.stats.Snapshot()
}

// PrepareBatch prepares the keyed objects in order, deriving per-sample
// seeds the same way the host executor does, so the device-centric path
// is drop-in bit-equal with the host path.
func (h *P2PHandler) PrepareBatch(keys []string, datasetSeed int64, epoch int) ([]dataprep.Prepared, error) {
	return h.PrepareBatchContext(context.Background(), keys, datasetSeed, epoch)
}

// PrepareBatchContext is PrepareBatch with cancellation: the first NVMe
// or engine error — or ctx being cancelled — stops both stages and
// drains the pipeline before returning.
func (h *P2PHandler) PrepareBatchContext(ctx context.Context, keys []string, datasetSeed int64, epoch int) ([]dataprep.Prepared, error) {
	read := pipeline.NewStage("nvme-read", 1, h.depth,
		func(ctx context.Context, i int) (storage.Object, error) {
			if err := ctx.Err(); err != nil {
				return storage.Object{}, err
			}
			obj, err := h.readObject(ctx, keys[i], 0)
			if err != nil {
				return storage.Object{}, fmt.Errorf("fpga: p2p sample %q: %w", keys[i], err)
			}
			return obj, nil
		})
	prep := pipeline.NewStage("prep-engine", 1, 1,
		func(_ context.Context, obj storage.Object) (dataprep.Prepared, error) {
			p := h.prepare(obj, dataprep.SampleSeed(datasetSeed, obj.Key, epoch))
			if p.Err != nil {
				return dataprep.Prepared{}, fmt.Errorf("fpga: p2p sample %q: %w", p.Key, p.Err)
			}
			return p, nil
		})
	pl, err := pipeline.New("fpga-p2p", read, prep)
	if err != nil {
		return nil, err
	}
	run := pl.WithMetrics(h.reg).Run(ctx, pipeline.IndexSource(len(keys)))
	out, err := pipeline.Drain[dataprep.Prepared](run)
	h.stats.Add(run.Stats())
	if err != nil {
		return nil, err
	}
	return out, nil
}
