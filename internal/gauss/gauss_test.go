package gauss

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTable pins what the package comment promises: ascending
// quantiles, symmetric, standard deviation 0.99984, tails at ±3.67, and
// a Kolmogorov–Smirnov distance of exactly ½/4096 to Φ (each quantile
// sits in the middle of its step).
func TestTable(t *testing.T) {
	var sum, sq, ks float64
	for i, q := range Table {
		if i > 0 && q <= Table[i-1] {
			t.Fatalf("Table[%d] = %v not above Table[%d] = %v", i, q, i-1, Table[i-1])
		}
		if d := q + Table[Levels-1-i]; math.Abs(d) > 1e-12 {
			t.Fatalf("Table[%d] + Table[%d] = %g, want 0", i, Levels-1-i, d)
		}
		sum, sq = sum+q, sq+q*q
		phi := 0.5 * math.Erfc(-q/math.Sqrt2)
		ks = max(ks, float64(i+1)/Levels-phi, phi-float64(i)/Levels)
	}
	if mean := sum / Levels; math.Abs(mean) > 1e-12 {
		t.Errorf("mean = %g, want 0", mean)
	}
	if std := math.Sqrt(sq / Levels); math.Abs(std-0.99984) > 5e-6 {
		t.Errorf("std = %.6f, want 0.99984", std)
	}
	if tail := Table[Levels-1]; math.Abs(tail-3.67) > 0.005 {
		t.Errorf("largest quantile = %.4f, want 3.67", tail)
	}
	if math.Abs(ks-0.5/Levels) > 1e-9 {
		t.Errorf("KS distance to Φ = %g, want ½/4096 = %g", ks, 0.5/Levels)
	}
}

// TestStream: a stream takes one Uint64 from the caller's rng, its
// words split into indices low field first exactly as recorded from
// the stream's first release (the third word cut after two fields, as
// a kernel cuts its last word), and every index is a valid Table
// position hit about equally often.
func TestStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStream(rng)
	want := rand.New(rand.NewSource(3))
	want.Uint64()
	if rng.Uint64() != want.Uint64() {
		t.Error("NewStream did not draw exactly one Uint64")
	}

	recorded := []int{432, 1381, 1139, 3251, 3332, 3906, 1148, 1542, 696, 2558, 3304, 3903}
	var got []int
	for len(got) < len(recorded) {
		w := s.Next()
		for k := 0; k < PerWord && len(got) < len(recorded); k++ {
			got = append(got, int(w>>(k*Bits)&(Levels-1)))
		}
	}
	if !slices.Equal(got, recorded) {
		t.Errorf("first indices of seed 3 = %v, want %v", got, recorded)
	}

	const words = 1000 * 64
	var hist [Levels]int
	for range words {
		w := s.Next()
		for k := 0; k < PerWord; k++ {
			hist[w>>(k*Bits)&(Levels-1)]++
		}
	}
	// Pearson χ² over 4,095 degrees of freedom: mean 4,095, sd ≈ 90.
	var chi2 float64
	exp := float64(words*PerWord) / Levels
	for _, c := range hist {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	if chi2 < 4095-5*90 || chi2 > 4095+5*90 {
		t.Errorf("χ² = %.0f over 4,095 degrees of freedom: indices are not uniform", chi2)
	}
}
