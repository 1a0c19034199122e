package core

import (
	"math"
	"testing"

	"trainbox/internal/arch"
	"trainbox/internal/report"
	"trainbox/internal/workload"
)

// TestTrainingReplayMatchesMinRule: the overlapped pipeline's steady
// throughput must converge to min(prep rate, compute rate) — the paper's
// Figure 1 composition — for both a prep-bound and a compute-bound
// system.
func TestTrainingReplayMatchesMinRule(t *testing.T) {
	cases := []struct {
		kind arch.Kind
		name string
	}{
		{arch.Baseline, "Resnet-50"}, // prep-bound at 256
		{arch.TrainBox, "VGG-19"},    // compute-bound at 256
	}
	for _, c := range cases {
		w, err := workload.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		sys := mustBuild(t, arch.Config{Kind: c.kind, NumAccels: 256})
		analytic, err := Solve(sys, w)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := SimulateTraining(sys, w, 50)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(replay.Throughput)-float64(analytic.Throughput)) /
			float64(analytic.Throughput)
		if rel > 0.05 {
			t.Errorf("%v/%s: replay %v vs analytic %v (%.1f%%)",
				c.kind, c.name, replay.Throughput, analytic.Throughput, 100*rel)
		}
	}
}

// TestTrainingReplayIdleSides: the slack must sit on the non-bottleneck
// side — accelerators idle when prep-bound, preparation idle when
// compute-bound.
func TestTrainingReplayIdleSides(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")

	prepBound := mustBuild(t, arch.Config{Kind: arch.Baseline, NumAccels: 256})
	r1, err := SimulateTraining(prepBound, w, 40)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AccelIdle < 0.5 {
		t.Errorf("prep-bound system: accel idle = %.2f, want large", r1.AccelIdle)
	}
	if r1.PrepIdle > 0.05 {
		t.Errorf("prep-bound system: prep idle = %.2f, want ≈0", r1.PrepIdle)
	}

	w2, _ := workload.ByName("VGG-19")
	computeBound := mustBuild(t, arch.Config{Kind: arch.TrainBox, NumAccels: 256})
	r2, err := SimulateTraining(computeBound, w2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if r2.PrepIdle < 0.1 {
		t.Errorf("compute-bound system: prep idle = %.2f, want > 0.1", r2.PrepIdle)
	}
	if r2.AccelIdle > 0.05 {
		t.Errorf("compute-bound system: accel idle = %.2f, want ≈0", r2.AccelIdle)
	}
}

// TestTrainingReplayOverlapBeatsSerial: with overlap, total time is
// ≈ max(prep, compute) per step, not the sum — the whole point of
// next-batch prefetching.
func TestTrainingReplayOverlapBeatsSerial(t *testing.T) {
	w, _ := workload.ByName("Inception-v4")
	sys := mustBuild(t, arch.Config{Kind: arch.Baseline, NumAccels: 16})
	res, err := Solve(sys, w)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := SimulateTraining(sys, w, 60)
	if err != nil {
		t.Fatal(err)
	}
	global := float64(16 * w.BatchSize)
	prepTime := global / float64(res.PrepRate)
	computeTime := global / float64(res.ComputeRate)
	serialPerStep := prepTime + computeTime
	overlapPerStep := replay.Elapsed / float64(replay.Steps)
	if overlapPerStep > 0.9*serialPerStep {
		t.Errorf("overlap per-step %v not better than serial %v", overlapPerStep, serialPerStep)
	}
	wantPerStep := math.Max(prepTime, computeTime)
	if math.Abs(overlapPerStep-wantPerStep)/wantPerStep > 0.1 {
		t.Errorf("per-step %v, want ≈max(prep,compute)=%v", overlapPerStep, wantPerStep)
	}
}

func TestTrainingReplayValidation(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	sys := mustBuild(t, arch.Config{Kind: arch.Baseline, NumAccels: 8})
	if _, err := SimulateTraining(sys, w, 0); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := SimulateTraining(sys, w, maxReplaySteps+1); err == nil {
		t.Errorf("%d steps accepted", maxReplaySteps+1)
	}
}

func TestTrainingReplayTimeline(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	sys := mustBuild(t, arch.Config{Kind: arch.Baseline, NumAccels: 64})
	replay, err := SimulateTraining(sys, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	prepSpans, computeSpans := 0, 0
	for _, s := range replay.Timeline {
		if s.End <= s.Start {
			t.Fatalf("empty span %+v", s)
		}
		switch s.Lane {
		case "prep":
			prepSpans++
		case "compute":
			computeSpans++
		default:
			t.Fatalf("unknown lane %q", s.Lane)
		}
	}
	if computeSpans != 10 {
		t.Errorf("compute spans = %d, want 10", computeSpans)
	}
	if prepSpans != 10 {
		t.Errorf("prep spans = %d, want 10", prepSpans)
	}
	if out := report.Gantt("t", replay.Timeline, 60); out == "" {
		t.Error("timeline did not render")
	}
}
