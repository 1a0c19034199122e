package collective

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"trainbox/internal/faults"
	"trainbox/internal/metrics"
)

// Reducer is the gradient-synchronization backend interface. Reduce sums
// the rank vectors element-wise in place: after it returns, every
// grads[r] holds the element-wise sum of all inputs. All backends honor
// one reduction-order contract — for each element, contributions are
// summed in the exact order the chunked ring all-reduce sums them — so
// every Reducer is bit-identical to every other on the same inputs.
// Topology changes what moves where and what it costs, never the
// numerics.
//
// Reduce may leave grads partially reduced when it returns a non-nil
// error after validation (e.g. a parameter-server shard dying past its
// retry budget); callers must treat the buffers as poisoned on error.
// Validation errors (mismatched lengths, zero ranks) leave grads
// unmodified.
type Reducer interface {
	Reduce(ctx context.Context, grads [][]float64) error
	// Name returns the backend's stable identifier ("ring", "tree",
	// "halving", "ps") used in metric names and CLI flags.
	Name() string
}

// Option configures a Reducer constructor. Options that only make sense
// for a specific backend (WithShards, WithFaults, WithRetry are
// parameter-server concerns) are rejected with an error by the other
// constructors rather than silently ignored.
type Option func(*reducerConfig) error

type reducerConfig struct {
	shards    int
	reg       *metrics.Registry
	inj       faults.Injector
	setFaults bool
	retry     faults.RetryPolicy
	setRetry  bool
}

// WithShards sets how many server replicas the parameter space is
// sharded across (parameter-server backend only). Each shard owns a
// contiguous slice of the parameter vector and runs its own
// push-gradient/pull-weight round. n must be ≥ 1; shard counts above
// the vector length are clamped so no shard is empty.
func WithShards(n int) Option {
	return func(c *reducerConfig) error {
		if n < 1 {
			return fmt.Errorf("collective: WithShards(%d): shard count must be >= 1", n)
		}
		c.shards = n
		return nil
	}
}

// WithMetrics binds the reducer's counters into reg under
// collective.<name>.{bytes_moved,rounds}. A nil registry keeps the
// no-op defaults.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *reducerConfig) error {
		c.reg = reg
		return nil
	}
}

// WithFaults installs a fault injector on the parameter-server tier:
// every push and pull consults it (ops "collective.ps.push" /
// "collective.ps.pull", keyed by shard and rank), so chaos tests can
// kill a shard replica mid-round. Parameter-server backend only.
func WithFaults(inj faults.Injector) Option {
	return func(c *reducerConfig) error {
		c.inj = inj
		c.setFaults = true
		return nil
	}
}

// WithRetry sets the bounded-retry policy a parameter-server shard round
// runs under. A failed round — including a dead shard replica, which the
// default classifier treats as retryable because the PS tier replaces
// replicas — is replayed from the workers' retained push buffers, so
// retries are idempotent and the reduced bits are unchanged.
// Parameter-server backend only.
func WithRetry(p faults.RetryPolicy) Option {
	return func(c *reducerConfig) error {
		c.retry = p
		c.setRetry = true
		return nil
	}
}

// buildConfig applies opts and enforces backend/option compatibility.
func buildConfig(backend string, serverTier bool, opts []Option) (reducerConfig, error) {
	var c reducerConfig
	for _, opt := range opts {
		if opt == nil {
			return c, fmt.Errorf("collective: %s: nil Option", backend)
		}
		if err := opt(&c); err != nil {
			return c, err
		}
	}
	if !serverTier {
		if c.shards != 0 {
			return c, fmt.Errorf("collective: %s: WithShards applies only to the parameter-server backend", backend)
		}
		if c.setFaults {
			return c, fmt.Errorf("collective: %s: WithFaults applies only to the parameter-server backend", backend)
		}
		if c.setRetry {
			return c, fmt.Errorf("collective: %s: WithRetry applies only to the parameter-server backend", backend)
		}
	}
	return c, nil
}

// reducerMetrics is the per-backend accounting every Reducer emits:
// bytes_moved counts payload bytes crossing links in the functional
// topology, rounds counts communication rounds. Nil counters (no
// registry) are no-ops.
type reducerMetrics struct {
	bytes  *metrics.Counter
	rounds *metrics.Counter
}

func newReducerMetrics(reg *metrics.Registry, name string) reducerMetrics {
	return reducerMetrics{
		bytes:  reg.Counter("collective." + name + ".bytes_moved"),
		rounds: reg.Counter("collective." + name + ".rounds"),
	}
}

func (m reducerMetrics) observe(bytes, rounds int64) {
	m.bytes.Add(bytes)
	m.rounds.Add(rounds)
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
// chunking, and it also fixes the package-wide reduction order (see
// canonicalSum).
func segmentBounds(n, length int) []int {
	bounds := make([]int, n+1)
	for s := 0; s <= n; s++ {
		bounds[s] = s * length / n
	}
	return bounds
}

// canonicalSum applies the package's reduction-order contract to the
// element range [lo, hi): element i in ring segment s is the left fold
// contrib[s] + contrib[s+1] + … wrapping mod n — exactly the order the
// chunked ring accumulates it (rank s starts segment s's reduce-scatter
// and each hop adds the next rank's value). Float addition is
// commutative but not associative, so fixing this fold is what makes
// every backend bit-identical to the ring.
//
// contrib[r] holds rank r's raw contribution for [lo, hi) at index
// i-lo; bounds is segmentBounds(len(contrib), fullLength); out receives
// the sums at index i-lo.
func canonicalSum(contrib [][]float64, lo, hi int, bounds []int, out []float64) {
	n := len(contrib)
	for s := 0; s < n; s++ {
		a, b := bounds[s], bounds[s+1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		for i := a; i < b; i++ {
			acc := contrib[s][i-lo]
			for k := 1; k < n; k++ {
				acc += contrib[(s+k)%n][i-lo]
			}
			out[i-lo] = acc
		}
	}
}

// ByName constructs the named backend: "ring", "tree", "halving", or
// "ps". It is the registry the CLI flags and serve front-end resolve
// through.
func ByName(name string, opts ...Option) (Reducer, error) {
	switch name {
	case "ring":
		return NewRing(opts...)
	case "tree":
		return NewTree(opts...)
	case "halving":
		return NewHalvingDoubling(opts...)
	case "ps":
		return NewParamServer(opts...)
	default:
		return nil, fmt.Errorf("collective: unknown sync backend %q (want ring, tree, halving, or ps)", name)
	}
}

// Backends lists the names ByName accepts, in display order.
func Backends() []string { return []string{"ring", "tree", "halving", "ps"} }

// NewRing returns the chunked ring all-reduce as a Reducer: a
// reduce-scatter phase followed by an all-gather phase, each of n−1
// steps, bandwidth-optimal at 2·(n−1)/n of the model per link. This is
// the default backend and the numerical reference every other backend
// reproduces bit-for-bit.
func NewRing(opts ...Option) (Reducer, error) {
	c, err := buildConfig("ring", false, opts)
	if err != nil {
		return nil, err
	}
	return &ringReducer{m: newReducerMetrics(c.reg, "ring")}, nil
}

type ringReducer struct {
	m reducerMetrics
	// bufs holds each rank's *[]float64 send buffers between Reduces; a
	// rank takes its own, so concurrent Reduces never share one.
	bufs sync.Pool
}

func (r *ringReducer) Name() string { return "ring" }

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
	r.m.observe(int64(2*(n-1)*length)*8, int64(2*(n-1)))
	return nil
}

// NewTree returns a binomial-tree Reducer: raw rank-tagged
// contributions travel up the tree, the root applies the canonical
// reduction order once, and the result is broadcast back down. Latency
// scales with log₂(n) levels but every level moves full vectors —
// latency-optimal for small messages, bandwidth-suboptimal for large
// ones (see TreeModel).
func NewTree(opts ...Option) (Reducer, error) {
	c, err := buildConfig("tree", false, opts)
	if err != nil {
		return nil, err
	}
	return &treeReducer{m: newReducerMetrics(c.reg, "tree")}, nil
}

type treeReducer struct {
	m reducerMetrics
}

func (t *treeReducer) Name() string { return "tree" }

// rankContrib is one rank's raw vector, tagged with its origin so
// aggregation points can apply the canonical reduction order no matter
// how the topology delivered it.
type rankContrib struct {
	rank int
	vals []float64
}

func (t *treeReducer) Reduce(ctx context.Context, grads [][]float64) error {
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

	// up[r] carries rank r's gathered subtree to its parent; down[r]
	// returns the final vector.
	up := make([]chan []rankContrib, n)
	down := make([]chan []float64, n)
	for i := range up {
		up[i] = make(chan []rankContrib, 1)
		down[i] = make(chan []float64, 1)
	}
	bounds := segmentBounds(n, length)
	var moved atomic.Int64 // floats crossing tree edges

	var wg sync.WaitGroup
	wg.Add(n)
	for rank := 0; rank < n; rank++ {
		go func(rank int) {
			defer wg.Done()
			// Gather the subtree's raw contributions, children
			// lowest-step first (classic binomial construction: child =
			// rank + step while rank % (2·step) == 0).
			acc := []rankContrib{{rank: rank, vals: grads[rank]}}
			for step := 1; step < n; step <<= 1 {
				if rank%(2*step) != 0 {
					// Non-root of this level: ship the gathered subtree to
					// the parent and wait for the broadcast.
					for _, c := range acc {
						moved.Add(int64(len(c.vals)))
					}
					up[rank] <- acc
					final := <-down[rank]
					copy(grads[rank], final)
					return
				}
				if child := rank + step; child < n {
					acc = append(acc, <-up[child]...)
				}
			}
			// Root: every rank's raw vector has arrived; apply the
			// canonical reduction order once and broadcast. The root
			// relays the broadcast for subtree heads whose goroutines
			// have exited — correctness-equivalent, with TreeModel
			// carrying the performance claims.
			contrib := make([][]float64, n)
			for _, c := range acc {
				contrib[c.rank] = c.vals
			}
			out := make([]float64, length)
			canonicalSum(contrib, 0, length, bounds, out)
			copy(grads[rank], out)
			for r := 0; r < n; r++ {
				if r == rank {
					continue
				}
				moved.Add(int64(length))
				down[r] <- append([]float64(nil), out...)
			}
		}(rank)
	}
	wg.Wait()
	levels := int64(bits.Len(uint(n - 1))) // ⌈log₂ n⌉
	t.m.observe(moved.Load()*8, 2*levels)
	return nil
}

// NewHalvingDoubling returns a recursive-halving/distance-doubling
// Reducer: bandwidth-optimal like the ring but finishing in 2·log₂(n)
// steps. It accepts any rank count: non-power-of-two counts run
// NCCL-style pre/post phases where the ranks above the largest power of
// two fold their vectors into a partner and receive the result back.
func NewHalvingDoubling(opts ...Option) (Reducer, error) {
	c, err := buildConfig("halving", false, opts)
	if err != nil {
		return nil, err
	}
	return &halvingReducer{m: newReducerMetrics(c.reg, "halving")}, nil
}

type halvingReducer struct {
	m reducerMetrics
}

func (h *halvingReducer) Name() string { return "halving" }

func (h *halvingReducer) Reduce(ctx context.Context, grads [][]float64) error {
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

	p := 1 << (bits.Len(uint(n)) - 1) // largest power of two ≤ n
	bounds := segmentBounds(n, length)
	var moved atomic.Int64

	// Exchanges carry sets of rank-tagged window slices so aggregation
	// can defer summation to the canonical order at the end of the
	// reduce-scatter. message[k] covers [lo, hi) of rank tag's vector.
	type window struct {
		rank   int
		lo, hi int
		vals   []float64
	}
	chans := make([][]chan []window, n)
	for i := range chans {
		chans[i] = make([]chan []window, n)
		for j := range chans[i] {
			chans[i][j] = make(chan []window, 1)
		}
	}
	// result[r] hands the post-phase vector back to excess rank r.
	result := make([]chan []float64, n)
	for i := range result {
		result[i] = make(chan []float64, 1)
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for rank := 0; rank < n; rank++ {
		go func(rank int) {
			defer wg.Done()
			if rank >= p {
				// Pre-phase: excess ranks fold into partner rank−p and
				// sit out; the post-phase returns the full result.
				partner := rank - p
				moved.Add(int64(length))
				chans[rank][partner] <- []window{{rank: rank, lo: 0, hi: length,
					vals: append([]float64(nil), grads[rank]...)}}
				copy(grads[rank], <-result[rank])
				return
			}

			// contrib[k] is rank k's raw vector; only the live window is
			// populated/valid as exchanges shrink it.
			contrib := make([][]float64, n)
			contrib[rank] = append([]float64(nil), grads[rank]...)
			if excess := rank + p; excess < n {
				for _, w := range <-chans[excess][rank] {
					buf := make([]float64, length)
					copy(buf[w.lo:w.hi], w.vals)
					contrib[w.rank] = buf
				}
			}

			// Reduce-scatter over the p-rank hypercube: exchange half the
			// live window each step, shipping every held contribution.
			lo, hi := 0, length
			for d := 1; d < p; d <<= 1 {
				partner := rank ^ d
				mid := lo + (hi-lo)/2
				var sendLo, sendHi, keepLo, keepHi int
				if rank&d != 0 { // upper-half owners have the bit set
					sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
				} else {
					sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
				}
				out := make([]window, 0, n)
				for k, buf := range contrib {
					if buf == nil {
						continue
					}
					out = append(out, window{rank: k, lo: sendLo, hi: sendHi,
						vals: append([]float64(nil), buf[sendLo:sendHi]...)})
					moved.Add(int64(sendHi - sendLo))
				}
				chans[rank][partner] <- out
				for _, w := range <-chans[partner][rank] {
					if w.lo != keepLo || w.hi != keepHi {
						panic("collective: halving-doubling window mismatch")
					}
					if contrib[w.rank] == nil {
						contrib[w.rank] = make([]float64, length)
					}
					copy(contrib[w.rank][w.lo:w.hi], w.vals)
				}
				lo, hi = keepLo, keepHi
			}

			// Every contribution has reached this rank's final window;
			// reduce it in the canonical order.
			views := make([][]float64, n)
			for k := range views {
				views[k] = contrib[k][lo:hi]
			}
			res := make([]float64, length)
			canonicalSum(views, lo, hi, bounds, res[lo:hi])

			// All-gather: reverse the exchanges, doubling the window.
			for d := p >> 1; d >= 1; d >>= 1 {
				partner := rank ^ d
				moved.Add(int64(hi - lo))
				chans[rank][partner] <- []window{{rank: -1, lo: lo, hi: hi,
					vals: append([]float64(nil), res[lo:hi]...)}}
				for _, w := range <-chans[partner][rank] {
					copy(res[w.lo:w.hi], w.vals)
					if w.lo < lo {
						lo = w.lo
					}
					if w.hi > hi {
						hi = w.hi
					}
				}
			}
			copy(grads[rank], res)
			// Post-phase: return the full vector to the pre-phase partner.
			if excess := rank + p; excess < n {
				moved.Add(int64(length))
				result[excess] <- res
			}
		}(rank)
	}
	wg.Wait()

	rounds := int64(2 * bits.Len(uint(p-1))) // 2·log₂(p) hypercube steps
	if n > p {
		rounds += 2 // pre + post phase
	}
	h.m.observe(moved.Load()*8, rounds)
	return nil
}
