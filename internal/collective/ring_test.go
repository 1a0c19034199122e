package collective

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"trainbox/internal/nn"
	"trainbox/internal/units"
)

func TestRingAllReduceMatchesSum(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		for _, length := range []int{1, 2, n - 1, n, n + 1, 100, 1000} {
			if length < 1 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(n*1000 + length)))
			data := make([][]float64, n)
			oracle := make([][]float64, n)
			for r := range data {
				data[r] = make([]float64, length)
				for i := range data[r] {
					data[r][i] = rng.NormFloat64()
				}
				oracle[r] = append([]float64(nil), data[r]...)
			}
			if err := CentralAllReduce(oracle); err != nil {
				t.Fatal(err)
			}
			if err := reduceRing(data); err != nil {
				t.Fatalf("n=%d len=%d: %v", n, length, err)
			}
			for r := range data {
				for i := range data[r] {
					if math.Abs(data[r][i]-oracle[r][i]) > 1e-9*(1+math.Abs(oracle[r][i])) {
						t.Fatalf("n=%d len=%d rank=%d idx=%d: ring=%v central=%v",
							n, length, r, i, data[r][i], oracle[r][i])
					}
				}
			}
		}
	}
}

func TestRingAllReduceSingleRankIsNoop(t *testing.T) {
	data := [][]float64{{1, 2, 3}}
	if err := reduceRing(data); err != nil {
		t.Fatal(err)
	}
	if data[0][0] != 1 || data[0][2] != 3 {
		t.Error("single-rank all-reduce modified data")
	}
}

func TestRingAllReduceErrors(t *testing.T) {
	if err := reduceRing(nil); err == nil {
		t.Error("empty rank set accepted")
	}
	if err := reduceRing([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged input accepted")
	}
	if err := CentralAllReduce(nil); err == nil {
		t.Error("central: empty rank set accepted")
	}
	if err := CentralAllReduce([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("central: ragged input accepted")
	}
}

func TestRingAllReduceEmptyVectors(t *testing.T) {
	data := [][]float64{{}, {}, {}}
	if err := reduceRing(data); err != nil {
		t.Fatal(err)
	}
}

// FuzzRingMatchesRingOrder drives the ring with fuzzed rank counts
// (1–16), lengths (0–2,048) and values: the result must equal the
// sequential ringOrderSum fold bit for bit and CentralAllReduce within
// the rounding of two summation orders, and ragged input or a cancelled
// context must fail before grads is touched.
func FuzzRingMatchesRingOrder(f *testing.F) {
	f.Add(uint8(3), uint16(64), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(15), uint16(2048), []byte{0xff, 0x7f, 0x13})
	f.Fuzz(func(t *testing.T, ranks uint8, length uint16, vals []byte) {
		n, l := 1+int(ranks)%16, int(length)%2049
		base := make([][]float64, n)
		for r := range base {
			base[r] = make([]float64, l)
			for i := range base[r] {
				base[r][i] = fuzzValue(vals, r*l+i)
			}
		}
		got := cloneGrads(base)
		if err := reduceRing(got); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, ringOrderSum(base), "ring vs ringOrderSum")
		central := cloneGrads(base)
		if err := CentralAllReduce(central); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < l; i++ {
			var abs float64
			for r := range base {
				abs += math.Abs(base[r][i])
			}
			// Each order's rounding error is at most (n−1)·ε·Σ|x|.
			if d := math.Abs(got[0][i] - central[0][i]); d > 2*float64(n)*0x1p-52*abs {
				t.Fatalf("n=%d len=%d idx %d: ring %v, central %v", n, l, i, got[0][i], central[0][i])
			}
		}

		ring, err := NewRing()
		if err != nil {
			t.Fatal(err)
		}
		if n > 1 {
			ragged := cloneGrads(base)
			ragged[n-1] = append(ragged[n-1], 1)
			if ring.Reduce(context.Background(), ragged) == nil {
				t.Fatal("ragged input accepted")
			}
			ragged[n-1] = ragged[n-1][:l]
			requireBitIdentical(t, ragged, base, "ragged Reduce")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cancelled := cloneGrads(base)
		if ring.Reduce(ctx, cancelled) == nil {
			t.Fatal("cancelled context accepted")
		}
		requireBitIdentical(t, cancelled, base, "cancelled Reduce")
	})
}

// fuzzValue reads element k's value from the fuzz bytes, cycling through
// them three at a time: a signed 16-bit integer over 3, scaled by
// 2^[-20, 20], so sums mix magnitudes and cancel, and most values carry
// a full significand whose rounding shows the summation order. No bytes
// gives all zeros.
func fuzzValue(vals []byte, k int) float64 {
	if len(vals) == 0 {
		return 0
	}
	b := func(j int) byte { return vals[(3*k+j)%len(vals)] }
	m := int16(uint16(b(0)) | uint16(b(1))<<8)
	return math.Ldexp(float64(m)/3, int(b(2)^byte(k))%41-20)
}

// TestRingAllReduceSynchronizesRealGradients is the integration with
// internal/nn: distinct replicas backprop different samples, all-reduce
// their gradients, and must end bit-identical and equal to the summed
// gradient.
func TestRingAllReduceSynchronizesRealGradients(t *testing.T) {
	const ranks = 4
	rng := rand.New(rand.NewSource(11))
	// Identical initial replicas (share the same seed).
	nets := make([]*nn.Network, ranks)
	for r := range nets {
		nets[r] = nn.NewMLP([]int{6, 8, 3}, rand.New(rand.NewSource(99)))
	}
	grads := make([][]float64, ranks)
	var expected []float64
	for r, net := range nets {
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		label := rng.Intn(3)
		net.ZeroGrad()
		net.LossAndBackward(net.Forward(x), label)
		grads[r] = net.Gradients()
		if expected == nil {
			expected = make([]float64, len(grads[r]))
		}
		for i, v := range grads[r] {
			expected[i] += v
		}
	}
	if err := reduceRing(grads); err != nil {
		t.Fatal(err)
	}
	for r := range grads {
		for i := range grads[r] {
			if math.Abs(grads[r][i]-expected[i]) > 1e-9*(1+math.Abs(expected[i])) {
				t.Fatalf("rank %d grad %d: %v vs %v", r, i, grads[r][i], expected[i])
			}
		}
		copy(nets[r].GradientBuffer(), grads[r])
	}
}

// TestRingReduceAllocsIndependentOfLength: a warm ring Reduce allocates
// the same count and bytes for a 1k- and a 1M-element vector, because its
// send buffers come from the reducer's pool instead of one fresh copy per
// segment sent. Each length keeps its cheapest of ten calls: a call that
// lands on a processor whose pool slot is empty still allocates a
// buffer set.
func TestRingReduceAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	ring, err := NewRing()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(length int) (allocs, bytes uint64) {
		grads := randGrads(4, length, 1)
		allocs, bytes = math.MaxUint64, math.MaxUint64
		var before, after runtime.MemStats
		for i := 0; i < 11; i++ {
			runtime.ReadMemStats(&before)
			if err := ring.Reduce(ctx, grads); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 { // the first call sizes the pooled buffers
				allocs = min(allocs, after.Mallocs-before.Mallocs)
				bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			}
		}
		return allocs, bytes
	}
	smallAllocs, smallBytes := measure(1_000)
	bigAllocs, bigBytes := measure(1_000_000)
	if bigAllocs != smallAllocs || bigBytes != smallBytes {
		t.Errorf("warm Reduce: %d allocs, %d B at 1M elements vs %d allocs, %d B at 1k",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}

// TestRingConcurrentReducesMatchSequential: callers sharing one ring
// (train.WithSync leaves that to them) reduce different rank counts and
// lengths at once; each result must equal the same reduction run alone,
// bit for bit.
func TestRingConcurrentReducesMatchSequential(t *testing.T) {
	ring, err := NewRing()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shapes := []struct{ ranks, length int }{{4, 1000}, {3, 37}}
	for iter := int64(0); iter < 20; iter++ {
		got := make([][][]float64, len(shapes))
		want := make([][][]float64, len(shapes))
		for j, sh := range shapes {
			got[j] = randGrads(sh.ranks, sh.length, iter*10+int64(j))
			want[j] = cloneGrads(got[j])
			if err := ring.Reduce(ctx, want[j]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, len(shapes))
		for j := range shapes {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				errs[j] = ring.Reduce(ctx, got[j])
			}(j)
		}
		wg.Wait()
		for j := range shapes {
			if errs[j] != nil {
				t.Fatal(errs[j])
			}
			requireBitIdentical(t, got[j], want[j], "concurrent ring Reduce")
		}
	}
}

func TestRingModelLatencyShape(t *testing.T) {
	m := DefaultRingModel()
	const modelBytes = 100 * units.MB // ResNet-50 class
	l2 := m.Latency(2, modelBytes)
	if l2 <= 0 {
		t.Fatal("two-rank latency must be positive")
	}
	prev := l2
	for _, n := range []int{4, 8, 16, 64, 256} {
		l := m.Latency(n, modelBytes)
		if l < prev {
			t.Errorf("latency decreased at n=%d: %v < %v", n, l, prev)
		}
		prev = l
	}
	// Figure 2b: saturates at ~2× of the 2-accelerator latency.
	norm256 := m.NormalizedLatency(256, modelBytes)
	if norm256 < 1.9 || norm256 > 2.1 {
		t.Errorf("normalized latency at 256 = %v, want ≈2", norm256)
	}
	if m.NormalizedLatency(2, modelBytes) != 1 {
		t.Error("normalized latency at 2 must be 1")
	}
}

func TestRingModelEdgeCases(t *testing.T) {
	m := DefaultRingModel()
	if m.Latency(0, units.MB) != 0 || m.Latency(1, units.MB) != 0 {
		t.Error("n≤1 latency must be 0")
	}
	if m.Latency(8, 0) != 0 {
		t.Error("zero-byte latency must be 0")
	}
	if m.NormalizedLatency(8, 0) != 0 {
		t.Error("zero-byte normalized latency must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative ranks did not panic")
		}
	}()
	m.Latency(-1, units.MB)
}

func TestRingBeatsCentralAtScale(t *testing.T) {
	ring := DefaultRingModel()
	central := CentralModel{LinkBandwidth: ring.LinkBandwidth}
	const modelBytes = 100 * units.MB
	// At n=2 they are comparable; at n=256 central is ~n/2 slower.
	r256 := ring.Latency(256, modelBytes)
	c256 := central.Latency(256, modelBytes)
	if c256 < 50*r256 {
		t.Errorf("central %v should dwarf ring %v at 256 ranks", c256, r256)
	}
	if central.Latency(1, modelBytes) != 0 {
		t.Error("central n=1 latency must be 0")
	}
}

// TestRingModelBandwidthOptimality checks the ring transmits the
// information-theoretic minimum: per-rank traffic approaches 2× model
// size and never exceeds it.
func TestRingModelBandwidthOptimality(t *testing.T) {
	m := DefaultRingModel()
	const modelBytes = units.Bytes(1e9)
	for n := 2; n <= 1024; n *= 2 {
		transfer := m.Latency(n, modelBytes) - 2*float64(n-1)*m.HopLatency
		perRankBytes := transfer * float64(m.LinkBandwidth)
		if perRankBytes > 2*float64(modelBytes)*(1+1e-9) {
			t.Errorf("n=%d transmits %v bytes/rank, above the 2× bound", n, perRankBytes)
		}
	}
}
