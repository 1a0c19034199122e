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

// reduceRing sums grads in place through a fresh ring.
func reduceRing(grads [][]float64) error {
	r, err := NewRing()
	if err != nil {
		return err
	}
	return r.Reduce(context.Background(), grads)
}

// ringOrderSum is the sequential oracle of the ring's reduction order:
// element i in ring segment s, [s·length/n, (s+1)·length/n), is the left
// fold grads[s][i] + grads[s+1][i] + … wrapping mod n, because rank s
// starts segment s's reduce-scatter and each hop adds the next rank's
// value. It computes the chunking itself, so a change to the ring's
// segmentBounds fails the oracle too. It returns the all-reduced rank
// set and leaves grads untouched.
func ringOrderSum(grads [][]float64) [][]float64 {
	n := len(grads)
	length := len(grads[0])
	sum := make([]float64, length)
	for s := 0; s < n; s++ {
		for i := s * length / n; i < (s+1)*length/n; i++ {
			acc := grads[s][i]
			for k := 1; k < n; k++ {
				acc += grads[(s+k)%n][i]
			}
			sum[i] = acc
		}
	}
	out := make([][]float64, n)
	for r := range out {
		out[r] = append([]float64(nil), sum...)
	}
	return out
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

// TestReducerBitIdentityOracle pins the ring's exact bits: across rank
// counts (including non-powers-of-two), vector lengths (including
// lengths below the rank count) and seeds, the ring equals the
// sequential ringOrderSum fold bit for bit, and the sequential
// CentralAllReduce within rounding.
func TestReducerBitIdentityOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for _, length := range []int{1, 3, 64, 1000} {
			for seed := int64(1); seed <= 3; seed++ {
				base := randGrads(n, length, seed*7919+int64(n*1000+length))
				got := cloneGrads(base)
				if err := reduceRing(got); err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, got, ringOrderSum(base), "ring vs ringOrderSum")
				central := cloneGrads(base)
				if err := CentralAllReduce(central); err != nil {
					t.Fatal(err)
				}
				for r := range got {
					for i, g := range got[r] {
						if c := central[r][i]; math.Abs(g-c) > 1e-9*(1+math.Abs(c)) {
							t.Fatalf("ring n=%d len=%d rank %d idx %d: %v, central %v", n, length, r, i, g, c)
						}
					}
				}
			}
		}
	}
}

func TestReducerOptionValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("NewRing accepted a nil Option")
	}
}

func TestReducerValidationErrors(t *testing.T) {
	ring, err := NewRing()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ring.Reduce(ctx, nil); err == nil {
		t.Error("empty rank set accepted")
	}
	bad := [][]float64{{1, 2}, {3}}
	if err := ring.Reduce(ctx, bad); err == nil {
		t.Error("ragged ranks accepted")
	}
	if bad[0][0] != 1 || bad[1][0] != 3 {
		t.Error("validation error modified data")
	}
}

func TestReducerContextCancelled(t *testing.T) {
	ring, err := NewRing()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	grads := [][]float64{{1, 2}, {3, 4}}
	if err := ring.Reduce(ctx, grads); err == nil {
		t.Error("cancelled context accepted")
	}
	if grads[0][0] != 1 || grads[1][1] != 4 {
		t.Error("cancelled Reduce modified data")
	}
}

func TestReducerZeroLengthAndSingleRank(t *testing.T) {
	ring, err := NewRing()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ring.Reduce(ctx, [][]float64{{}, {}}); err != nil {
		t.Errorf("zero-length vectors: %v", err)
	}
	one := [][]float64{{1, 2, 3}}
	if err := ring.Reduce(ctx, one); err != nil {
		t.Errorf("single rank: %v", err)
	}
	if one[0][1] != 2 {
		t.Error("single-rank reduce modified data")
	}
}

// TestReducerMetrics pins the ring's exact traffic accounting: each of
// the 2·(n−1) steps moves one segment per rank, and the segments tile
// the vector.
func TestReducerMetrics(t *testing.T) {
	const n, length = 4, 1000
	reg := metrics.NewRegistry()
	ring, err := NewRing(WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.Reduce(context.Background(), randGrads(n, length, 1)); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter("collective.ring.bytes_moved").Value(), int64(2*(n-1)*length*8); got != want {
		t.Errorf("bytes_moved = %d, want %d", got, want)
	}
	if got, want := reg.Counter("collective.ring.rounds").Value(), int64(2*(n-1)); got != want {
		t.Errorf("rounds = %d, want %d", got, want)
	}
}
