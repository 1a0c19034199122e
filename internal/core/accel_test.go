package core

import (
	"math"
	"testing"

	"trainbox/internal/units"
	"trainbox/internal/workload"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := newAccelCluster(0); err == nil {
		t.Error("zero-size cluster accepted")
	}
	c, err := newAccelCluster(16)
	if err != nil || c.n != 16 {
		t.Errorf("newAccelCluster: %v %+v", err, c)
	}
}

func TestComputeTimeAtTableBatch(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	got := ComputeTime(w, w.BatchSize)
	want := float64(w.BatchSize) / float64(w.AccelRate)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ComputeTime = %v, want %v", got, want)
	}
	if ComputeTime(w, 0) != 0 {
		t.Error("zero batch should cost 0")
	}
}

func TestThroughputScalesNearLinearly(t *testing.T) {
	// Figure 2b's consequence: ring sync keeps scaling efficient, so a
	// 256-accelerator cluster should deliver ≥ 95% of 256× one
	// accelerator for every Table I workload at its table batch.
	for _, w := range workload.Workloads() {
		c1, _ := newAccelCluster(1)
		c256, _ := newAccelCluster(256)
		t1 := float64(c1.PeakThroughput(w))
		t256 := float64(c256.PeakThroughput(w))
		eff := t256 / (256 * t1)
		if eff < 0.95 || eff > 1.0+1e-9 {
			t.Errorf("%s: 256-accel scaling efficiency = %.3f, want ≥0.95", w.Name, eff)
		}
	}
}

func TestSingleAcceleratorMatchesTableI(t *testing.T) {
	c, _ := newAccelCluster(1)
	for _, w := range workload.Workloads() {
		got := c.PeakThroughput(w)
		if math.Abs(float64(got-w.AccelRate)) > 1e-6 {
			t.Errorf("%s: single-accel throughput = %v, want %v", w.Name, got, w.AccelRate)
		}
	}
}

func TestSyncTimeGrowsThenSaturates(t *testing.T) {
	w, _ := workload.ByName("VGG-19") // largest model, most sync-sensitive
	c2, _ := newAccelCluster(2)
	c256, _ := newAccelCluster(256)
	s2 := c2.SyncTime(w)
	s256 := c256.SyncTime(w)
	if s256 <= s2 {
		t.Error("sync time should grow with cluster size")
	}
	if s256 > 2.2*s2 {
		t.Errorf("sync time at 256 = %v, should saturate near 2× of %v", s256, s2)
	}
}

func TestSmallBatchHurtsThroughputTwice(t *testing.T) {
	// Figure 20's mechanism: smaller batches reduce accelerator
	// efficiency and amplify the relative sync cost.
	w, _ := workload.ByName("Resnet-50")
	c, _ := newAccelCluster(256)
	small := float64(c.Throughput(w, 8))
	large := float64(c.Throughput(w, 8192))
	if small >= large/10 {
		t.Errorf("batch-8 throughput %v should be far below batch-8192 %v", small, large)
	}
	// The compute share of the step must also be lower at the small batch.
	if ComputeTime(w, 8)/c.StepTime(w, 8) >= ComputeTime(w, 8192)/c.StepTime(w, 8192) {
		t.Error("sync efficiency should drop at small batch")
	}
}

func TestThroughputMonotoneInBatch(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	c, _ := newAccelCluster(256)
	prev := units.SamplesPerSec(0)
	for _, b := range []int{8, 32, 128, 512, 2048, 8192} {
		tp := c.Throughput(w, b)
		if tp <= prev {
			t.Errorf("throughput not increasing at batch %d", b)
		}
		prev = tp
	}
}

func TestTargetAggregateRate(t *testing.T) {
	// The 256-accelerator target rates drive the Figure 10 requirement
	// curves; sanity-check the headline: ResNet-50 at 256 accelerators
	// approaches 1.9 M samples/s.
	w, _ := workload.ByName("Resnet-50")
	c, _ := newAccelCluster(256)
	got := float64(c.PeakThroughput(w))
	if got < 1.8e6 || got > 1.91e6 {
		t.Errorf("256-accel ResNet-50 rate = %v, want ≈1.9e6", got)
	}
}

func TestDegenerateInputs(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	c, _ := newAccelCluster(4)
	if ComputeTime(w, -1) != 0 {
		t.Error("negative batch should cost 0")
	}
	if c.Throughput(w, 0) != 0 {
		t.Error("zero batch throughput should be 0")
	}
	// A zero-rate workload yields zero compute time (guarded division).
	broken := w
	broken.AccelRate = 0
	broken.BatchHalfSat = 1
	if ComputeTime(broken, 8) != 0 {
		t.Error("zero-rate workload should cost 0")
	}
}
