// Package pipeline is the staged-pipeline runtime behind the functional
// data path: one reusable implementation of the staging machinery that
// the paper's Section II-B overlap argument rests on.
//
// The paper observes that a training step is a chain of serial
// operations — storage read → data preparation → transfer → computation
// → model synchronization — and that because "the data preparation of
// the next batch does not depend on the results of the current batch",
// the stages can run concurrently on different batches: stage i works on
// batch n while stage i+1 works on batch n-1. Throughput is then set by
// the slowest stage, not the sum, which is exactly why TrainBox balances
// per-stage capacity. This package gives the reproduction one concrete
// runtime for that idea instead of three divergent hand-rolled wirings:
//
//   - Stage: one typed transform with a parallelism degree — the
//     software analogue of replicating a preparation engine until the
//     stage keeps up with its neighbours (Section III-B's "batching,
//     software pipelining, and data partitioning").
//   - Bounded inter-stage queues: each stage's output queue has a fixed
//     depth, so a fast producer blocks instead of buffering unboundedly —
//     the double-buffering of Section II-B generalized to depth d, and
//     the mechanism that keeps memory use proportional to pipeline depth
//     rather than dataset size.
//   - Backpressure: when a downstream stage stalls, the stall propagates
//     upstream through the full queues; no stage races ahead of the
//     balance point, mirroring how the paper's PCIe/Ethernet fabrics cap
//     effective preparation rate.
//   - Cancellation: a context.Context threads through every stage; the
//     first error cancels the whole pipeline and all stages drain
//     cleanly, so a mid-epoch storage failure cannot leak goroutines.
//   - Buffer reuse: Pool wraps sync.Pool for sample/batch payloads so a
//     steady-state pipeline recycles buffers instead of allocating per
//     batch (FFCV-style page recycling, in miniature).
//   - Metrics: with a registry attached (WithMetrics), every stage
//     reports items, busy time, and queue occupancy under
//     "pipeline.<pipeline>.<stage>.*" — the one per-stage ledger that
//     makes stage imbalance, the paper's central diagnostic, observable
//     at runtime.
//
// A run is Drain over an index range [from, to): the integers enter the
// first stage, and the last stage's outputs come back as one ordered
// slice. Ordering is preserved end to end, even through stages with
// parallelism > 1, which is what lets the deterministic-preparation
// tests assert bit-identical batches regardless of worker count.
//
// internal/dataprep builds its fetch→prepare executor on this runtime;
// internal/fpga's prep-pool Cluster dispatches samples across its
// devices through it; internal/train composes prepare→extract→step as
// one pipeline for the end-to-end driver.
package pipeline
