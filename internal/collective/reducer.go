package collective

import (
	"context"
	"fmt"
	"sync"

	"trainbox/internal/metrics"
)

// Reducer is the gradient-synchronization interface. Reduce sums the
// rank vectors element-wise in place: after it returns, every grads[r]
// holds the element-wise sum of all inputs. The chunked ring (NewRing)
// is the one implementation; the interface is the seam through which a
// caller wraps it (train.WithSync), e.g. to time every Reduce.
//
// The ring returns an error only before it touches grads (a cancelled
// context, no ranks, mismatched lengths), so on error grads are
// unmodified.
type Reducer interface {
	Reduce(ctx context.Context, grads [][]float64) error
}

// Option configures NewRing.
type Option func(*reducerConfig) error

type reducerConfig struct {
	reg *metrics.Registry
}

// WithMetrics binds the ring's counters into reg under
// collective.ring.{bytes_moved,rounds}. A nil registry keeps the no-op
// defaults.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *reducerConfig) error {
		c.reg = reg
		return nil
	}
}

// validateRanks checks the shared Reduce preconditions and returns the
// rank count and vector length. It never modifies grads.
func validateRanks(grads [][]float64) (n, length int, err error) {
	n = len(grads)
	if n == 0 {
		return 0, 0, fmt.Errorf("collective: no ranks")
	}
	length = len(grads[0])
	for r, d := range grads {
		if len(d) != length {
			return 0, 0, fmt.Errorf("collective: rank %d has %d elements, rank 0 has %d", r, len(d), length)
		}
	}
	return n, length, nil
}

// segmentBounds partitions length elements into n contiguous segments:
// segment s covers [bounds[s], bounds[s+1]). This is the ring's
// chunking, and with it the per-element reduction order: element i in
// segment s is the left fold contrib[s] + contrib[s+1] + … wrapping mod
// n, because rank s starts segment s's reduce-scatter and each hop adds
// the next rank's value. Float addition is not associative, so this
// fold is what the ring's exact bits depend on.
func segmentBounds(n, length int) []int {
	bounds := make([]int, n+1)
	for s := 0; s <= n; s++ {
		bounds[s] = s * length / n
	}
	return bounds
}

// NewRing returns the chunked ring all-reduce as a Reducer: a
// reduce-scatter phase followed by an all-gather phase, each of n−1
// steps, bandwidth-optimal at 2·(n−1)/n of the model per link.
func NewRing(opts ...Option) (Reducer, error) {
	var c reducerConfig
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("collective: ring: nil Option")
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	return &ringReducer{
		bytes:  c.reg.Counter("collective.ring.bytes_moved"),
		rounds: c.reg.Counter("collective.ring.rounds"),
	}, nil
}

type ringReducer struct {
	// bytes counts payload bytes crossing ring links, rounds counts
	// communication steps. Nil counters (no registry) are no-ops.
	bytes, rounds *metrics.Counter
	// bufs holds each rank's *[]float64 send buffers between Reduces, so
	// a run's steps reuse them; a rank takes its own, so concurrent
	// Reduces on one ring never share one.
	bufs sync.Pool
}

// Reduce runs one goroutine per rank, communicating over channels
// arranged in a ring.
func (r *ringReducer) Reduce(ctx context.Context, grads [][]float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n, length, err := validateRanks(grads)
	if err != nil {
		return err
	}
	if n == 1 || length == 0 {
		return nil
	}

	bounds := segmentBounds(n, length)
	seg := func(v []float64, s int) []float64 { return v[bounds[s]:bounds[s+1]] }
	segCap := (length + n - 1) / n // ≥ every segment's length

	// chans[r] carries segments from rank r to rank (r+1) mod n. A buffer
	// of 1 lets each step's send complete without rendezvous.
	chans := make([]chan []float64, n)
	for i := range chans {
		chans[i] = make(chan []float64, 1)
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for rank := 0; rank < n; rank++ {
		go func(rank int) {
			defer wg.Done()
			send := chans[rank]
			recv := chans[(rank-1+n)%n]
			mod := func(x int) int { return ((x % n) + n) % n }
			bufs, _ := r.bufs.Get().(*[]float64)
			if bufs == nil || len(*bufs) < 3*segCap {
				b := make([]float64, 3*segCap)
				bufs = &b
			}
			defer r.bufs.Put(bufs)

			// Reduce-scatter: after n−1 steps, rank owns the fully
			// reduced segment (rank+1) mod n. The rank keeps adding into
			// its segments while the next rank reads, so it sends copies,
			// rotating three buffers: a completed send into the
			// capacity-1 channel proves only that the receiver has taken
			// the previous buffer, but the receiver finishes each buffer
			// before taking the next, so the one sent two steps back is
			// free again.
			for step := 0; step < n-1; step++ {
				out := seg(grads[rank], mod(rank-step))
				buf := (*bufs)[step%3*segCap:][:len(out)]
				copy(buf, out)
				send <- buf
				incoming := <-recv
				dst := seg(grads[rank], mod(rank-step-1))
				for i, v := range incoming {
					dst[i] += v
				}
			}
			// All-gather: circulate the reduced segments. Every segment
			// a rank sends here is final and the rank never writes it
			// again, so the receiver reads it in place.
			for step := 0; step < n-1; step++ {
				send <- seg(grads[rank], mod(rank-step+1))
				copy(seg(grads[rank], mod(rank-step)), <-recv)
			}
		}(rank)
	}
	wg.Wait()
	// Each of the 2·(n−1) steps moves one segment per rank; segments
	// tile the vector, so each phase moves (n−1)·length floats total.
	r.bytes.Add(int64(2*(n-1)*length) * 8)
	r.rounds.Add(int64(2 * (n - 1)))
	return nil
}
