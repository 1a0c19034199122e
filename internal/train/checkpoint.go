package train

import (
	"errors"
	"fmt"
	"sync/atomic"

	"trainbox/internal/nn"
)

// ErrSuspended is returned (wrapped) by Run when a Suspender parked the
// run at an epoch boundary. The checkpoint of that boundary is the last
// one the WithCheckpointSink callback received.
var ErrSuspended = errors.New("train: run suspended")

// Checkpoint is an epoch-boundary snapshot of a training run: every
// replica's weights and optimizer velocity (flattened in the
// nn.Network.Weights layout), the last completed epoch, and the seed
// that drove both model initialization and per-sample augmentation.
//
// Because augmentation depends only on (dataset seed, key, epoch) and
// replicas are initialized deterministically from Seed, restoring a
// checkpoint and running the remaining epochs reproduces an
// uninterrupted run bit for bit.
type Checkpoint struct {
	// Epoch is the last completed epoch index (0-based); a restored run
	// resumes at Epoch+1.
	Epoch int
	// Seed is the Config.Seed of the run that produced the snapshot.
	Seed int64
	// Widths are the MLP layer widths of the run.
	Widths []int
	// Replicas holds each replica's flattened weights.
	Replicas [][]float64
	// Velocity holds each replica's flattened optimizer velocity (nil
	// for a replica whose optimizer never stepped).
	Velocity [][]float64
}

// validateFor reports the first incompatibility between the checkpoint
// and the run configuration it is being restored into.
func (cp Checkpoint) validateFor(cfg Config) error {
	if len(cp.Replicas) == 0 {
		return fmt.Errorf("train: checkpoint has no replicas")
	}
	if len(cp.Replicas) != cfg.Replicas {
		return fmt.Errorf("train: checkpoint has %d replicas, config wants %d", len(cp.Replicas), cfg.Replicas)
	}
	if len(cp.Velocity) != len(cp.Replicas) {
		return fmt.Errorf("train: checkpoint has %d velocity vectors for %d replicas", len(cp.Velocity), len(cp.Replicas))
	}
	if cp.Seed != cfg.Seed {
		return fmt.Errorf("train: checkpoint seed %d does not match config seed %d (augmentation would diverge)", cp.Seed, cfg.Seed)
	}
	if len(cp.Widths) != len(cfg.Widths) {
		return fmt.Errorf("train: checkpoint widths %v do not match config widths %v", cp.Widths, cfg.Widths)
	}
	for i, w := range cp.Widths {
		if w != cfg.Widths[i] {
			return fmt.Errorf("train: checkpoint widths %v do not match config widths %v", cp.Widths, cfg.Widths)
		}
	}
	if cp.Epoch < 0 || cp.Epoch >= cfg.Epochs {
		return fmt.Errorf("train: checkpoint epoch %d outside config's %d epochs", cp.Epoch, cfg.Epochs)
	}
	if cp.Epoch == cfg.Epochs-1 {
		return fmt.Errorf("train: checkpoint already covers all %d epochs, nothing left to run", cfg.Epochs)
	}
	return nil
}

// Clone deep-copies the checkpoint.
func (cp Checkpoint) Clone() Checkpoint {
	out := Checkpoint{Epoch: cp.Epoch, Seed: cp.Seed}
	out.Widths = append([]int(nil), cp.Widths...)
	out.Replicas = make([][]float64, len(cp.Replicas))
	for i, w := range cp.Replicas {
		out.Replicas[i] = append([]float64(nil), w...)
	}
	out.Velocity = make([][]float64, len(cp.Velocity))
	for i, v := range cp.Velocity {
		if v != nil {
			out.Velocity[i] = append([]float64(nil), v...)
		}
	}
	return out
}

// capture snapshots the run state after epoch completed; it must only be
// called from the serial step stage (the sole weight mutator).
func capture(cfg Config, replicas []*nn.Network, opts []*nn.SGD, epoch int) Checkpoint {
	cp := Checkpoint{
		Epoch:    epoch,
		Seed:     cfg.Seed,
		Widths:   append([]int(nil), cfg.Widths...),
		Replicas: make([][]float64, len(replicas)),
		Velocity: make([][]float64, len(replicas)),
	}
	for i, net := range replicas {
		cp.Replicas[i] = net.Weights()
		cp.Velocity[i] = opts[i].Velocity()
	}
	return cp
}

// Suspender asks a running train.Run to park itself at the next epoch
// boundary. Suspend may be called from any goroutine; from then on the
// run prepares no epoch past its first, the epochs already in flight
// finish and hand their buffers back untrained, and the run parks on the
// checkpoint of that boundary, which the WithCheckpointSink callback
// (when set) has received, returning an error satisfying
// errors.Is(err, ErrSuspended).
// A later run with WithRestore continues bit-identically. A Suspender is
// single-use: attach a fresh one to each run. A nil Suspender is never
// requested.
type Suspender struct {
	requested atomic.Bool
}

// NewSuspender returns an idle Suspender.
func NewSuspender() *Suspender { return &Suspender{} }

// Suspend requests the park. Idempotent; safe from any goroutine. A
// request landing after the final epoch completes (or after the run has
// otherwise finished) is ignored — the run just finishes.
func (s *Suspender) Suspend() { s.requested.Store(true) }

// Requested reports whether Suspend has been called.
func (s *Suspender) Requested() bool { return s != nil && s.requested.Load() }

// WithCheckpointSink captures a checkpoint after every completed epoch
// but the final one — the run's Result is the final state — and hands
// it to sink; a parked run (see Suspender) hands over the checkpoint of
// the epoch it parked after, once, and prepares no epoch after the
// request. The sink is called synchronously from the serial step stage
// — between epochs, never concurrently with weight updates — so it may
// hold the snapshot without copying; keep it fast or training stalls.
func WithCheckpointSink(sink func(Checkpoint)) Option {
	return func(o *runOptions) error {
		if sink == nil {
			return fmt.Errorf("train: WithCheckpointSink needs a non-nil sink")
		}
		o.checkpointSink = sink
		return nil
	}
}

// WithRestore starts the run from a checkpoint instead of fresh
// initialization: replica weights and optimizer velocity are restored
// and the epoch schedule resumes at cp.Epoch+1. The checkpoint must
// match the Config (seed, widths, replica count) or Run fails.
func WithRestore(cp Checkpoint) Option {
	return func(o *runOptions) error {
		if o.restore != nil {
			return fmt.Errorf("train: multiple restore checkpoints configured")
		}
		c := cp.Clone()
		o.restore = &c
		return nil
	}
}

// WithSuspender attaches a Suspender so the run can be parked at an
// epoch boundary; once it is requested the run prepares no further
// epoch (see Suspender).
func WithSuspender(s *Suspender) Option {
	return func(o *runOptions) error {
		if s == nil {
			return fmt.Errorf("train: WithSuspender needs a non-nil suspender")
		}
		o.suspender = s
		return nil
	}
}
