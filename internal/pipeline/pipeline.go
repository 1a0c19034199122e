package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trainbox/internal/metrics"
)

// Stage is one transform in a pipeline: items enter, fn runs on up to
// parallelism workers, results leave through a bounded queue in the
// order the items entered. Build stages with NewStage, which adds type
// safety around the untyped runtime representation.
type Stage struct {
	name   string
	par    int
	depth  int
	fn     func(ctx context.Context, v any) (any, error)
	expand func(ctx context.Context, v any) ([]any, error)
}

// NewStage builds a typed stage. parallelism < 1 is treated as 1 (a
// serial stage); queueDepth < 0 as 0 (a rendezvous hand-off). fn must be
// safe for concurrent use when parallelism > 1. Returning an error from
// fn fails the whole run: the pipeline context is cancelled and every
// stage drains.
func NewStage[In, Out any](name string, parallelism, queueDepth int, fn func(ctx context.Context, in In) (Out, error)) *Stage {
	if parallelism < 1 {
		parallelism = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &Stage{
		name:  name,
		par:   parallelism,
		depth: queueDepth,
		fn: func(ctx context.Context, v any) (any, error) {
			in, ok := v.(In)
			if !ok {
				var want In
				return nil, fmt.Errorf("pipeline: stage %q: item is %T, want %T", name, v, want)
			}
			return fn(ctx, in)
		},
	}
}

// NewExpandStage builds a typed one-to-many stage: fn maps each input
// to zero or more outputs, emitted downstream in order. It is the
// building block for data echoing with per-replica payloads (each
// output can carry its own bookkeeping) and for batch-splitting stages.
// Expand stages are always serial (the emission order of a fan-out is
// only well-defined for one worker) and renumber their output sequence
// so downstream parallel stages still restore a total order.
//
// Ownership on cancellation: outputs fn has returned that the run drops
// before delivery are handed to the pipeline's discard hook
// (Pipeline.WithDiscard), exactly once each.
func NewExpandStage[In, Out any](name string, queueDepth int, fn func(ctx context.Context, in In) ([]Out, error)) *Stage {
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &Stage{
		name:  name,
		par:   1,
		depth: queueDepth,
		expand: func(ctx context.Context, v any) ([]any, error) {
			in, ok := v.(In)
			if !ok {
				var want In
				return nil, fmt.Errorf("pipeline: stage %q: item is %T, want %T", name, v, want)
			}
			outs, err := fn(ctx, in)
			if err != nil {
				return nil, err
			}
			vs := make([]any, len(outs))
			for i, o := range outs {
				vs[i] = o
			}
			return vs, nil
		},
	}
}

// Pipeline is a description of a staged data path. It can be run any
// number of times; each Run gets its own channels, goroutines, and
// counters. Attach a metrics registry with WithMetrics before running
// to stream per-stage telemetry into it.
type Pipeline struct {
	name    string
	stages  []*Stage
	reg     *metrics.Registry
	discard func(v any)
}

// WithMetrics attaches a registry: every subsequent Run reports
// per-stage items, busy-time quantiles, and queue depth under
// "pipeline.<pipeline>.<stage>.*". Metrics from repeated runs
// accumulate into the same series. A nil registry detaches (the
// default): unmetered runs pay no telemetry cost. Returns p for
// chaining.
func (p *Pipeline) WithMetrics(reg *metrics.Registry) *Pipeline {
	p.reg = reg
	return p
}

// WithDiscard installs a hook that receives every in-flight value a run
// drops instead of delivering: items stranded in stage queues when the
// run is cancelled or stopped, results a stage could not forward, and
// buffered output Stop throws away. Stages that recycle pooled buffers
// into their outputs use it to close the loop on cancellation — without
// it, a mid-run cancel leaks whatever was in flight.
//
// The hook may be called concurrently from several pipeline goroutines
// and must not block. It fires exactly once per dropped value. Values
// fn consumed before failing are NOT discarded — a stage function owns
// its input once invoked and must clean up on its own error paths. A
// nil hook (the default) disables discard tracking at no cost. Returns
// p for chaining.
func (p *Pipeline) WithDiscard(fn func(v any)) *Pipeline {
	p.discard = fn
	return p
}

// New validates and assembles a pipeline from stages in order.
func New(name string, stages ...*Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: %q needs at least one stage", name)
	}
	seen := make(map[string]bool, len(stages))
	for i, s := range stages {
		if s == nil {
			return nil, fmt.Errorf("pipeline: %q: stage %d is nil", name, i)
		}
		if s.name == "" {
			return nil, fmt.Errorf("pipeline: %q: stage %d has no name", name, i)
		}
		if seen[s.name] {
			return nil, fmt.Errorf("pipeline: %q: duplicate stage name %q", name, s.name)
		}
		seen[s.name] = true
	}
	return &Pipeline{name: name, stages: stages}, nil
}

// Source feeds items into a running pipeline by calling emit once per
// item. emit blocks while the first stage is busy (backpressure) and
// returns the context error once the run is cancelled, at which point
// the source should stop. A non-nil return fails the run.
type Source func(ctx context.Context, emit func(v any) error) error

// IndexSource emits the integers 0..n-1 — the usual driver for batch
// index or epoch schedules.
func IndexSource(n int) Source {
	return func(ctx context.Context, emit func(v any) error) error {
		for i := 0; i < n; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}
}

// RangeSource emits the integers from..to-1 — IndexSource with a
// starting offset, the driver for resuming an epoch schedule after a
// checkpoint restore.
func RangeSource(from, to int) Source {
	return func(ctx context.Context, emit func(v any) error) error {
		for i := from; i < to; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}
}

// item is the envelope moved between stages; seq is the source emission
// index, used to restore order after a parallel stage.
type item struct {
	seq int64
	v   any
}

// stageRun instruments one stage for one run. The m* handles are
// registry metrics resolved once at Run time (nil when the pipeline has
// no registry attached — every call on them is then a no-op).
type stageRun struct {
	spec     *Stage
	out      chan item
	itemsIn  atomic.Int64
	itemsOut atomic.Int64
	busy     atomic.Int64 // nanoseconds inside fn

	mItems *metrics.Counter   // items completed by fn
	mBusy  *metrics.Histogram // per-item ns inside fn
	mQueue *metrics.Gauge     // output queue occupancy at last enqueue
}

// Run is one execution of a pipeline over one source. Consume Out()
// until it closes, then check Err(); or call Stop to cancel early.
type Run struct {
	name     string
	ctx      context.Context
	cancel   context.CancelFunc
	stages   []*stageRun
	srcOut   chan item
	final    chan any
	wg       sync.WaitGroup
	complete atomic.Bool

	discardFn func(v any)
	scavOnce  sync.Once

	errOnce  sync.Once
	mu       sync.Mutex
	firstErr error
}

// discard hands a dropped value to the pipeline's discard hook.
func (r *Run) discard(v any) {
	if r.discardFn != nil {
		r.discardFn(v)
	}
}

// scavenge empties every (closed) channel of a finished run through the
// discard hook — the items stranded in stage queues when stages exited
// early. Must only run after wg.Wait, when all channels are closed.
func (r *Run) scavenge() {
	r.scavOnce.Do(func() {
		if r.discardFn == nil {
			return
		}
		for it := range r.srcOut {
			r.discard(it.v)
		}
		for _, sr := range r.stages {
			for it := range sr.out {
				r.discard(it.v)
			}
		}
		for v := range r.final {
			r.discard(v)
		}
	})
}

// Run starts the pipeline over the source. The returned Run owns all
// goroutines it spawned; they exit once the source is exhausted, an
// error cancels the run, or ctx is cancelled.
func (p *Pipeline) Run(ctx context.Context, src Source) *Run {
	rctx, cancel := context.WithCancel(ctx)
	r := &Run{name: p.name, ctx: rctx, cancel: cancel, final: make(chan any), discardFn: p.discard}

	srcOut := make(chan item)
	r.srcOut = srcOut
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(srcOut)
		var seq int64
		emit := func(v any) error {
			select {
			case srcOut <- item{seq: seq, v: v}:
				seq++
				return nil
			case <-rctx.Done():
				return rctx.Err()
			}
		}
		if err := src(rctx, emit); err != nil && rctx.Err() == nil {
			r.fail(err)
		}
	}()

	in := srcOut
	for _, s := range p.stages {
		sr := &stageRun{spec: s, out: make(chan item, s.depth)}
		if p.reg != nil {
			prefix := "pipeline." + p.name + "." + s.name + "."
			sr.mItems = p.reg.Counter(prefix + "items")
			sr.mBusy = p.reg.Histogram(prefix + "busy_ns")
			sr.mQueue = p.reg.Gauge(prefix + "queue_depth")
		}
		r.stages = append(r.stages, sr)
		r.startStage(rctx, sr, in)
		in = sr.out
	}

	// Strip envelopes from the last stage into the public output channel.
	last := in
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(r.final)
		for it := range last {
			select {
			case r.final <- it.v:
			case <-rctx.Done():
				r.discard(it.v)
				for it := range last { // drain cancelled run
					r.discard(it.v)
				}
				return
			}
		}
		if rctx.Err() == nil {
			r.complete.Store(true)
		}
	}()
	return r
}

// emitStage forwards one applied result downstream. Returns false once
// the run is cancelled; the value goes to the discard hook.
func (r *Run) emitStage(ctx context.Context, sr *stageRun, it item) bool {
	select {
	case sr.out <- it:
		sr.itemsOut.Add(1)
		sr.mQueue.SetInt(int64(len(sr.out)))
		return true
	case <-ctx.Done():
		r.discard(it.v)
		return false
	}
}

func (r *Run) startStage(ctx context.Context, sr *stageRun, in <-chan item) {
	// apply runs the stage function (plain or expanding) on one item.
	// Exactly one of the returned value/slice is meaningful, matching
	// sr.spec.expand.
	apply := func(it item) (v any, vs []any, ok bool) {
		sr.itemsIn.Add(1)
		start := time.Now()
		var err error
		if sr.spec.expand != nil {
			vs, err = sr.spec.expand(ctx, it.v)
		} else {
			v, err = sr.spec.fn(ctx, it.v)
		}
		elapsed := time.Since(start)
		sr.busy.Add(int64(elapsed))
		sr.mItems.Inc()
		sr.mBusy.ObserveDuration(elapsed)
		if err != nil {
			r.fail(err)
			return nil, nil, false
		}
		return v, vs, true
	}

	if sr.spec.par == 1 {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer close(sr.out)
			// An expand stage changes the item count, so it renumbers its
			// output densely to keep downstream order total.
			var outSeq int64
			for it := range in {
				v, vs, ok := apply(it)
				if !ok {
					return
				}
				if sr.spec.expand == nil {
					if !r.emitStage(ctx, sr, item{seq: it.seq, v: v}) {
						return
					}
					continue
				}
				for i, ev := range vs {
					if !r.emitStage(ctx, sr, item{seq: outSeq, v: ev}) {
						for _, rest := range vs[i+1:] {
							r.discard(rest)
						}
						return
					}
					outSeq++
				}
			}
		}()
		return
	}

	// Parallel stage: workers fan out, a reorderer restores source order.
	// Out-of-orderness is bounded by the worker count, so the pending map
	// never holds more than par items.
	results := make(chan item)
	var workers sync.WaitGroup
	for w := 0; w < sr.spec.par; w++ {
		workers.Add(1)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer workers.Done()
			for it := range in {
				v, _, ok := apply(it)
				if !ok {
					return
				}
				select {
				case results <- item{seq: it.seq, v: v}:
				case <-ctx.Done():
					r.discard(v)
					return
				}
			}
		}()
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		workers.Wait()
		close(results)
	}()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(sr.out)
		pending := make(map[int64]any, sr.spec.par)
		defer func() { // seq gaps from failed workers strand entries here
			for _, v := range pending {
				r.discard(v)
			}
		}()
		var next int64
		for it := range results {
			pending[it.seq] = it.v
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if !r.emitStage(ctx, sr, item{seq: next, v: v}) {
					for it := range results { // drain cancelled run
						r.discard(it.v)
					}
					return
				}
				next++
			}
		}
	}()
}

func (r *Run) fail(err error) {
	r.errOnce.Do(func() {
		r.mu.Lock()
		r.firstErr = err
		r.mu.Unlock()
		r.cancel()
	})
}

// Out is the ordered output of the last stage. It closes when the run
// completes, fails, or is stopped; check Err() afterwards.
func (r *Run) Out() <-chan any { return r.final }

// Err returns the first stage or source error, the cancellation cause
// if the run was cancelled before completing, or nil if the run
// completed (or is still in flight).
func (r *Run) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr != nil {
		return r.firstErr
	}
	if r.complete.Load() {
		return nil
	}
	return r.ctx.Err()
}

// Wait blocks until every pipeline goroutine has exited and returns
// Err(). Out() must already be fully consumed (or the run cancelled),
// otherwise Wait deadlocks on the backpressured output.
func (r *Run) Wait() error {
	r.wg.Wait()
	r.cancel() // release the derived context; Err() is already latched
	r.scavenge()
	return r.Err()
}

// Stop cancels the run, discards any buffered output (through the
// discard hook, when one is attached), and waits for all goroutines to
// exit. It is safe to call multiple times and after completion.
func (r *Run) Stop() {
	r.cancel()
	for v := range r.final { // discard buffered output
		r.discard(v)
	}
	r.wg.Wait()
	r.scavenge()
}

// Drain consumes the run to completion, returning the ordered outputs
// asserted to T. It waits for all goroutines to exit before returning.
// On error the partial results Drain had already collected are dropped
// — routed through the run's discard hook, so an attached owner still
// reclaims every delivered-then-abandoned value.
func Drain[T any](r *Run) ([]T, error) {
	out := make([]T, 0, 16)
	fail := func(err error) ([]T, error) {
		for _, t := range out {
			r.discard(t)
		}
		return nil, err
	}
	for v := range r.Out() {
		t, ok := v.(T)
		if !ok {
			r.Stop()
			var want T
			return fail(fmt.Errorf("pipeline: %s: output is %T, want %T", r.name, v, want))
		}
		out = append(out, t)
	}
	if err := r.Wait(); err != nil {
		return fail(err)
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) on its own goroutine and
// waits for all of them — the pipeline's fan-out/join primitive for
// fixed-width parallel sections such as per-replica compute. The first
// error cancels the shared context handed to the remaining calls, and
// is returned after the join.
func ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(fctx, i); err != nil {
				once.Do(func() {
					first = err
					cancel()
				})
			}
		}(i)
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}
