package collective

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"trainbox/internal/faults"
	"trainbox/internal/metrics"
	"trainbox/internal/units"
)

// killShard injects ErrDeviceDead on a specific shard's push while the
// attempt number is below healAt — a shard replica dying mid-round and
// being replaced.
type killShard struct {
	key    string
	healAt int
}

func (k killShard) Inject(op faults.Op) faults.Fault {
	if op.Name == "collective.ps.push" && strings.HasPrefix(op.Key, k.key+"/") && op.Attempt < k.healAt {
		return faults.Fault{Err: faults.ErrDeviceDead}
	}
	return faults.Fault{}
}

// TestParamServerShardDeathRecovers kills one PS shard replica on the
// round's first attempt and asserts the bounded retry replays the round
// to a bit-identical result.
func TestParamServerShardDeathRecovers(t *testing.T) {
	const n, length = 8, 513
	base := randGrads(n, length, 99)
	want := cloneGrads(base)
	if err := reduceBy("ring", want); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	ps, err := NewParamServer(
		WithShards(4),
		WithFaults(killShard{key: "shard-2", healAt: 2}),
		WithRetry(DefaultPSRetry()),
		WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := cloneGrads(base)
	if err := ps.Reduce(context.Background(), got); err != nil {
		t.Fatalf("reduce did not recover from shard death: %v", err)
	}
	requireBitIdentical(t, got, want, "ps after shard death")
	if retries := reg.Counter("collective.ps.shard_retries").Value(); retries < 2 {
		t.Errorf("shard_retries = %d, want >= 2 (two killed attempts)", retries)
	}
}

// TestParamServerPullFaultIsIdempotent kills a pull mid-round: some
// ranks have already been overwritten with reduced weights, and the
// replayed round must still land on the oracle bits because workers
// retained their push buffers.
type killPullOnce struct{}

func (killPullOnce) Inject(op faults.Op) faults.Fault {
	if op.Name == "collective.ps.pull" && op.Key == "shard-0/rank-3" && op.Attempt == 0 {
		return faults.Fault{Err: faults.Transient(errors.New("pull interrupted"))}
	}
	return faults.Fault{}
}

func TestParamServerPullFaultIsIdempotent(t *testing.T) {
	const n, length = 6, 257
	base := randGrads(n, length, 7)
	want := cloneGrads(base)
	if err := reduceBy("ring", want); err != nil {
		t.Fatal(err)
	}
	ps, err := NewParamServer(WithFaults(killPullOnce{}), WithRetry(DefaultPSRetry()))
	if err != nil {
		t.Fatal(err)
	}
	got := cloneGrads(base)
	if err := ps.Reduce(context.Background(), got); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want, "ps after pull fault")
}

// TestParamServerRetryExhaustion keeps a shard dead past the retry
// budget and asserts Reduce surfaces the failure.
func TestParamServerRetryExhaustion(t *testing.T) {
	ps, err := NewParamServer(
		WithShards(2),
		WithFaults(killShard{key: "shard-1", healAt: 1 << 30}),
		WithRetry(DefaultPSRetry()),
	)
	if err != nil {
		t.Fatal(err)
	}
	err = ps.Reduce(context.Background(), randGrads(4, 100, 1))
	if err == nil {
		t.Fatal("permanently dead shard did not fail the reduce")
	}
	if !errors.Is(err, faults.ErrDeviceDead) {
		t.Fatalf("error lost its cause: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error does not name the failed shard: %v", err)
	}
}

// TestParamServerNoRetryFailsFast: without WithRetry the zero-value
// policy makes one attempt, so a dead shard fails immediately.
func TestParamServerNoRetryFailsFast(t *testing.T) {
	ps, err := NewParamServer(WithFaults(killShard{key: "shard-0", healAt: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Reduce(context.Background(), randGrads(2, 10, 1)); err == nil {
		t.Fatal("dead shard with no retry budget did not fail")
	}
}

func TestParamServerModel(t *testing.T) {
	const mb = 100 * units.MB
	bw := 100 * units.GBps

	// Shards = 1 degenerates to CentralModel at the server link.
	ps := ParamServerModel{Shards: 1, WorkerBandwidth: bw, ServerBandwidth: bw}
	central := CentralModel{LinkBandwidth: bw}
	got, want := ps.Latency(16, mb), central.Latency(16, mb)
	// CentralModel serializes n−1 copies; PS with one shard serializes n
	// pushes — same asymptote, so just require the same scaling regime.
	if got < want*0.8 || got > want*1.3 {
		t.Errorf("1-shard PS latency %v not in CentralModel regime %v", got, want)
	}

	// More shards must be monotonically no slower, down to the
	// worker-link floor of 2·M/B.
	prev := math.Inf(1)
	for _, shards := range []int{1, 2, 4, 8, 16, 32} {
		m := ParamServerModel{Shards: shards, WorkerBandwidth: bw, ServerBandwidth: bw}
		l := m.Latency(16, mb)
		if l > prev {
			t.Errorf("latency rose when shards grew to %d: %v > %v", shards, l, prev)
		}
		prev = l
	}
	floor := 2 * float64(mb) / float64(bw)
	wide := ParamServerModel{Shards: 1024, WorkerBandwidth: bw, ServerBandwidth: bw}
	if l := wide.Latency(16, mb); math.Abs(l-floor) > floor*1e-9 {
		t.Errorf("wide PS tier latency %v, want worker floor %v", l, floor)
	}

	// Degenerate inputs cost nothing.
	if wide.Latency(1, mb) != 0 || wide.Latency(16, 0) != 0 {
		t.Error("degenerate inputs should cost 0")
	}
	// Zero-value Shards behaves as 1.
	zero := ParamServerModel{WorkerBandwidth: bw, ServerBandwidth: bw}
	one := ParamServerModel{Shards: 1, WorkerBandwidth: bw, ServerBandwidth: bw}
	if zero.Latency(8, mb) != one.Latency(8, mb) {
		t.Error("Shards=0 should behave as 1")
	}
}
