package pipeline

import (
	"context"
	"fmt"
	"sync"
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

// Pipeline is a description of a staged data path. It can be drained
// any number of times; each run gets its own channels and goroutines.
// Attach a metrics registry with WithMetrics before running to stream
// per-stage telemetry into it.
type Pipeline struct {
	name    string
	stages  []*Stage
	reg     *metrics.Registry
	discard func(v any)
}

// WithMetrics attaches a registry: every subsequent run reports
// per-stage items, busy-time quantiles, and queue depth under
// "pipeline.<pipeline>.<stage>.*" — the one per-stage ledger. Metrics
// from repeated runs accumulate into the same series. A nil registry
// detaches (the default): an unmetered run reads no clock per item.
// Returns p for chaining.
func (p *Pipeline) WithMetrics(reg *metrics.Registry) *Pipeline {
	p.reg = reg
	return p
}

// WithDiscard installs a hook that receives every in-flight value a run
// drops instead of returning: items stranded in stage queues when the
// run fails or is cancelled, results a stage could not forward, and the
// outputs Drain had already collected. Stages that recycle pooled
// buffers into their outputs use it to close the loop on cancellation —
// without it, a mid-run cancel leaks whatever was in flight.
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

// item is the envelope moved between stages; seq is the position in
// the driven range, used to restore order after a parallel stage.
type item struct {
	seq int64
	v   any
}

// stageRun is one stage of one run. The m* handles are registry
// metrics resolved once at run start (nil when the pipeline has no
// registry attached — every call on them is then a no-op).
type stageRun struct {
	spec *Stage
	out  chan item

	mItems *metrics.Counter   // items completed by fn
	mBusy  *metrics.Histogram // per-item ns inside fn
	mQueue *metrics.Gauge     // output queue occupancy at last enqueue
}

// run is one execution of a pipeline over one index range.
type run struct {
	ctx    context.Context
	cancel context.CancelFunc
	stages []*stageRun
	srcOut chan item
	wg     sync.WaitGroup

	discardFn func(v any)

	errOnce  sync.Once
	firstErr error // set once, before cancel; read after wg.Wait
}

// discard hands a dropped value to the pipeline's discard hook.
func (r *run) discard(v any) {
	if r.discardFn != nil {
		r.discardFn(v)
	}
}

func (r *run) fail(err error) {
	r.errOnce.Do(func() {
		r.firstErr = err
		r.cancel()
	})
}

// Drain runs the pipeline over the integers [from, to) — the usual
// driver is a batch's sample indices or a schedule of epochs — and
// returns the last stage's outputs in order, asserted to T. It returns
// once every pipeline goroutine has exited.
//
// The first stage error fails the run, as does ctx being cancelled
// before the run completes (the error is then ctx's). A failed run
// returns no outputs: everything it produced and did not hand on —
// queued items, and the outputs Drain had already collected — goes to
// the discard hook, exactly once each.
func Drain[T any](ctx context.Context, p *Pipeline, from, to int) ([]T, error) {
	r := p.start(ctx, from, to)
	out := make([]T, 0, max(to-from, 0))
	for it := range r.stages[len(r.stages)-1].out {
		t, ok := it.v.(T)
		if !ok {
			r.discard(it.v)
			var want T
			r.fail(fmt.Errorf("pipeline: %s: output is %T, want %T", p.name, it.v, want))
			continue
		}
		out = append(out, t)
	}
	r.wg.Wait()
	err := r.firstErr
	if err == nil {
		err = r.ctx.Err() // cancelled from outside before the run completed
	}
	r.cancel()
	if err == nil {
		return out, nil
	}
	if r.discardFn != nil {
		// Every channel is closed: empty the queues stages left behind
		// when they exited early, then the collected outputs.
		for it := range r.srcOut {
			r.discard(it.v)
		}
		for _, sr := range r.stages {
			for it := range sr.out {
				r.discard(it.v)
			}
		}
		for _, t := range out {
			r.discard(t)
		}
	}
	return nil, err
}

// start launches the source and every stage; the caller reads the last
// stage's queue.
func (p *Pipeline) start(ctx context.Context, from, to int) *run {
	rctx, cancel := context.WithCancel(ctx)
	r := &run{ctx: rctx, cancel: cancel, srcOut: make(chan item), discardFn: p.discard}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(r.srcOut)
		for i := from; i < to; i++ {
			select {
			case r.srcOut <- item{seq: int64(i - from), v: i}:
			case <-rctx.Done():
				return
			}
		}
	}()

	in := r.srcOut
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
	return r
}

// emitStage forwards one applied result downstream. Returns false once
// the run is cancelled; the value goes to the discard hook.
func (r *run) emitStage(ctx context.Context, sr *stageRun, it item) bool {
	select {
	case sr.out <- it:
		sr.mQueue.SetInt(int64(len(sr.out)))
		return true
	case <-ctx.Done():
		r.discard(it.v)
		return false
	}
}

func (r *run) startStage(ctx context.Context, sr *stageRun, in <-chan item) {
	// apply runs the stage function (plain or expanding) on one item.
	// Exactly one of the returned value/slice is meaningful, matching
	// sr.spec.expand. Only a metered stage reads the clock.
	apply := func(it item) (v any, vs []any, ok bool) {
		var start time.Time
		if sr.mBusy != nil {
			start = time.Now()
		}
		var err error
		if sr.spec.expand != nil {
			vs, err = sr.spec.expand(ctx, it.v)
		} else {
			v, err = sr.spec.fn(ctx, it.v)
		}
		if sr.mBusy != nil {
			sr.mItems.Inc()
			sr.mBusy.ObserveDuration(time.Since(start))
		}
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
