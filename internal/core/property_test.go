package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"trainbox/internal/arch"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// TestSolverMonotoneInHostResources: giving the host more cores or more
// memory bandwidth never reduces throughput, for random workloads,
// scales, and architectures — a fundamental sanity invariant of the
// bottleneck solver.
func TestSolverMonotoneInHostResources(t *testing.T) {
	ws := workload.Workloads()
	kinds := arch.Kinds()
	rng := rand.New(rand.NewSource(13))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := ws[r.Intn(len(ws))]
		kind := kinds[r.Intn(len(kinds))]
		n := 1 << r.Intn(9) // 1..256
		base := arch.DGX2()
		bigger := base
		bigger.Cores = base.Cores * (2 + r.Intn(4))
		bigger.MemoryBandwidth = base.MemoryBandwidth * units.BytesPerSec(2+r.Intn(4))

		s1, err := arch.Build(arch.Config{Kind: kind, NumAccels: n, Host: base})
		if err != nil {
			return false
		}
		s2, err := arch.Build(arch.Config{Kind: kind, NumAccels: n, Host: bigger})
		if err != nil {
			return false
		}
		r1, err := Solve(s1, w)
		if err != nil {
			return false
		}
		r2, err := Solve(s2, w)
		if err != nil {
			return false
		}
		return float64(r2.Throughput) >= float64(r1.Throughput)*(1-1e-9)
	}
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestSolverOrderingInvariant: the ladder relations that hold at every
// scale — P2P ≥ Acc (P2P only removes work), Gen4 ≥ P2P (only adds
// bandwidth), TrainBox ≥ TrainBox-without-pool (only adds capacity), and
// TrainBox ≥ Baseline. B+Acc ≥ Baseline deliberately does NOT hold at
// small scale: an undersized accelerator array loses to 48 host cores,
// the same effect Figure 21 shows for GPU preparation.
func TestSolverOrderingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ws := workload.Workloads()
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := ws[r.Intn(len(ws))]
		n := 4 << r.Intn(7) // 4..256
		rates := map[arch.Kind]float64{}
		for _, k := range arch.Kinds() {
			sys, err := arch.Build(arch.Config{Kind: k, NumAccels: n})
			if err != nil {
				return false
			}
			res, err := Solve(sys, w)
			if err != nil {
				return false
			}
			rates[k] = float64(res.Throughput)
		}
		eps := 1e-9
		return rates[arch.BaselineAccP2P] >= rates[arch.BaselineAcc]*(1-eps) &&
			rates[arch.BaselineAccP2PGen4] >= rates[arch.BaselineAccP2P]*(1-eps) &&
			rates[arch.TrainBox] >= rates[arch.TrainBoxNoPool]*(1-eps) &&
			rates[arch.TrainBox] >= rates[arch.Baseline]*(1-eps)
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestSolverPoolMonotone: a larger prep-pool never reduces TrainBox
// throughput.
func TestSolverPoolMonotone(t *testing.T) {
	w, _ := workload.ByName("RNN-S")
	prev := 0.0
	for _, pool := range []int{1, 8, 64, 256, 512} {
		sys, err := arch.Build(arch.Config{Kind: arch.TrainBox, NumAccels: 256, PoolFPGAs: pool})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(sys, w)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Throughput) < prev*(1-1e-9) {
			t.Errorf("pool %d: throughput %v fell below %v", pool, res.Throughput, prev)
		}
		prev = float64(res.Throughput)
	}
}
