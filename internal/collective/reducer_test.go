package collective

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"trainbox/internal/metrics"
)

// randGrads builds a deterministic rank set of random vectors.
func randGrads(n, length int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	grads := make([][]float64, n)
	for r := range grads {
		grads[r] = make([]float64, length)
		for i := range grads[r] {
			grads[r][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return grads
}

func cloneGrads(grads [][]float64) [][]float64 {
	out := make([][]float64, len(grads))
	for r := range grads {
		out[r] = append([]float64(nil), grads[r]...)
	}
	return out
}

// reduceBy sums grads in place through the named backend.
func reduceBy(name string, grads [][]float64) error {
	r, err := ByName(name)
	if err != nil {
		return err
	}
	return r.Reduce(context.Background(), grads)
}

// requireBitIdentical fails unless got and want match to the last bit.
func requireBitIdentical(t *testing.T, got, want [][]float64, label string) {
	t.Helper()
	for r := range want {
		for i := range want[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
				t.Fatalf("%s: rank %d idx %d: got %v (%#x) want %v (%#x)",
					label, r, i, got[r][i], math.Float64bits(got[r][i]),
					want[r][i], math.Float64bits(want[r][i]))
			}
		}
	}
}

// TestReducerBitIdentityOracle is the cross-backend contract: every
// Reducer produces output bit-identical to the ring's on the same inputs
// (the ring itself checked against the sequential CentralAllReduce), across rank counts (including non-powers-of-two,
// which exercise halving-doubling's pre/post fallback), vector lengths
// (including lengths below the rank/shard counts), seeds, and PS shard
// counts.
func TestReducerBitIdentityOracle(t *testing.T) {
	backends := func() map[string]Reducer {
		m := map[string]Reducer{}
		for _, name := range []string{"ring", "tree", "halving"} {
			r, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m[name] = r
		}
		for _, shards := range []int{1, 3, 8} {
			r, err := NewParamServer(WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			m["ps-"+string(rune('0'+shards))] = r
		}
		return m
	}()

	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for _, length := range []int{1, 3, 64, 1000} {
			for seed := int64(1); seed <= 3; seed++ {
				base := randGrads(n, length, seed*7919+int64(n*1000+length))
				want := cloneGrads(base)
				if err := reduceBy("ring", want); err != nil {
					t.Fatal(err)
				}
				central := cloneGrads(base)
				if err := CentralAllReduce(central); err != nil {
					t.Fatal(err)
				}
				for r := range want {
					for i, w := range want[r] {
						if c := central[r][i]; math.Abs(w-c) > 1e-9*(1+math.Abs(c)) {
							t.Fatalf("ring n=%d len=%d rank %d idx %d: %v, central %v", n, length, r, i, w, c)
						}
					}
				}
				for label, r := range backends {
					got := cloneGrads(base)
					if err := r.Reduce(ctx, got); err != nil {
						t.Fatalf("%s n=%d len=%d seed=%d: %v", label, n, length, seed, err)
					}
					requireBitIdentical(t, got, want, label)
				}
			}
		}
	}
}

func TestReducerNamesAndByName(t *testing.T) {
	for _, name := range Backends() {
		r, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if r.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, r.Name())
		}
	}
	if _, err := ByName("gossip"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestReducerOptionValidation(t *testing.T) {
	if _, err := NewParamServer(WithShards(0)); err == nil {
		t.Error("WithShards(0) accepted")
	}
	for _, ctor := range map[string]func(...Option) (Reducer, error){
		"ring": NewRing, "tree": NewTree, "halving": NewHalvingDoubling,
	} {
		if _, err := ctor(WithShards(2)); err == nil {
			t.Errorf("%T accepted WithShards", ctor)
		}
		if _, err := ctor(WithFaults(nil)); err == nil {
			t.Errorf("%T accepted WithFaults", ctor)
		}
		if _, err := ctor(WithRetry(DefaultPSRetry())); err == nil {
			t.Errorf("%T accepted WithRetry", ctor)
		}
		if _, err := ctor(nil); err == nil {
			t.Errorf("%T accepted a nil Option", ctor)
		}
	}
}

func TestReducerValidationErrors(t *testing.T) {
	ctx := context.Background()
	for _, name := range Backends() {
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Reduce(ctx, nil); err == nil {
			t.Errorf("%s: empty rank set accepted", name)
		}
		bad := [][]float64{{1, 2}, {3}}
		if err := r.Reduce(ctx, bad); err == nil {
			t.Errorf("%s: ragged ranks accepted", name)
		}
		if bad[0][0] != 1 || bad[1][0] != 3 {
			t.Errorf("%s: validation error modified data", name)
		}
	}
}

func TestReducerContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Backends() {
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		grads := [][]float64{{1, 2}, {3, 4}}
		if err := r.Reduce(ctx, grads); err == nil {
			t.Errorf("%s: cancelled context accepted", name)
		}
		if grads[0][0] != 1 || grads[1][1] != 4 {
			t.Errorf("%s: cancelled Reduce modified data", name)
		}
	}
}

func TestReducerZeroLengthAndSingleRank(t *testing.T) {
	ctx := context.Background()
	for _, name := range Backends() {
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Reduce(ctx, [][]float64{{}, {}}); err != nil {
			t.Errorf("%s: zero-length vectors: %v", name, err)
		}
		one := [][]float64{{1, 2, 3}}
		if err := r.Reduce(ctx, one); err != nil {
			t.Errorf("%s: single rank: %v", name, err)
		}
		if one[0][1] != 2 {
			t.Errorf("%s: single-rank reduce modified data", name)
		}
	}
}

// TestReducerMetrics pins the exact traffic accounting where it is
// architecturally determined (ring, ps) and the round counts for the
// log-depth topologies.
func TestReducerMetrics(t *testing.T) {
	ctx := context.Background()
	const n, length = 4, 1000

	cases := []struct {
		name       string
		opts       []Option
		wantBytes  int64 // 0 = only assert > 0
		wantRounds int64
	}{
		{name: "ring", wantBytes: 2 * (n - 1) * length * 8, wantRounds: 2 * (n - 1)},
		{name: "tree", wantRounds: 4},    // 2·log₂(4)
		{name: "halving", wantRounds: 4}, // 2·log₂(4)
		{name: "ps", opts: []Option{WithShards(2)}, wantBytes: 2 * n * length * 8, wantRounds: 2},
	}
	for _, tc := range cases {
		reg := metrics.NewRegistry()
		r, err := ByName(tc.name, append(tc.opts, WithMetrics(reg))...)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Reduce(ctx, randGrads(n, length, 1)); err != nil {
			t.Fatal(err)
		}
		bytes := reg.Counter("collective." + tc.name + ".bytes_moved").Value()
		rounds := reg.Counter("collective." + tc.name + ".rounds").Value()
		if tc.wantBytes > 0 && bytes != tc.wantBytes {
			t.Errorf("%s: bytes_moved = %d, want %d", tc.name, bytes, tc.wantBytes)
		}
		if bytes <= 0 {
			t.Errorf("%s: bytes_moved = %d, want > 0", tc.name, bytes)
		}
		if rounds != tc.wantRounds {
			t.Errorf("%s: rounds = %d, want %d", tc.name, rounds, tc.wantRounds)
		}
	}

	// Non-power-of-two halving adds the pre/post phases.
	reg := metrics.NewRegistry()
	r, err := NewHalvingDoubling(WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Reduce(ctx, randGrads(5, 64, 2)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("collective.halving.rounds").Value(); got != 6 {
		t.Errorf("halving n=5 rounds = %d, want 6 (2·log₂4 + pre + post)", got)
	}
}
