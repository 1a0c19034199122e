package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewSGDValidation(t *testing.T) {
	if _, err := NewSGD(0, 0); err == nil {
		t.Error("zero LR accepted")
	}
	if _, err := NewSGD(0.1, 1.0); err == nil {
		t.Error("momentum 1 accepted")
	}
	if _, err := NewSGD(0.1, -0.1); err == nil {
		t.Error("negative momentum accepted")
	}
	if _, err := NewSGD(0.1, 0.9); err != nil {
		t.Error("valid config rejected")
	}
}

func TestSGDZeroMomentumMatchesPlainStep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewMLP([]int{3, 5, 2}, rand.New(rand.NewSource(7)))
	b := NewMLP([]int{3, 5, 2}, rand.New(rand.NewSource(7)))
	x := []float64{0.5, -0.3, 1.2}

	a.ZeroGrad()
	a.LossAndBackward(a.Forward(x), 1)
	a.Step(0.1, 4)

	b.ZeroGrad()
	b.LossAndBackward(b.Forward(x), 1)
	opt, _ := NewSGD(0.1, 0)
	opt.Step(b, 4)

	for li := range a.Layers {
		for i := range a.Layers[li].W {
			if math.Abs(a.Layers[li].W[i]-b.Layers[li].W[i]) > 1e-12 {
				t.Fatalf("layer %d W[%d] differs between plain and SGD(0,0)", li, i)
			}
		}
	}
	_ = rng
}

func TestSGDMomentumAccumulatesVelocity(t *testing.T) {
	// Repeated identical gradients with momentum m approach an effective
	// step of lr/(1−m): after k steps the velocity is g·(1−m^k)/(1−m).
	net := NewMLP([]int{1, 1}, rand.New(rand.NewSource(1)))
	net.Layers[0].W[0] = 0
	net.Layers[0].B[0] = 0
	opt, _ := NewSGD(0.1, 0.5)
	var pos float64
	for k := 0; k < 30; k++ {
		net.ZeroGrad()
		net.Layers[0].GradW[0] = 1 // constant gradient
		opt.Step(net, 1)
		pos = net.Layers[0].W[0]
	}
	// Displacement after many steps ≈ −lr·Σ velocities → slope −lr/(1−m)
	// per step asymptotically; just assert it moved farther than plain
	// SGD would have (−0.1×30 = −3).
	if pos > -3.5 {
		t.Errorf("momentum displacement = %v, want well beyond plain SGD's −3", pos)
	}
	if v := opt.Velocity(); len(v) == 0 || v[0] == 0 {
		t.Errorf("velocity = %v, want the accumulated gradient", v)
	}
}

func TestMomentumSpeedsConvergence(t *testing.T) {
	gen := func(rng *rand.Rand, n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			label := 0
			if 0.3*x[0]-0.8*x[1] > 0.1 {
				label = 1
			}
			out[i] = Sample{X: x, Label: label}
		}
		return out
	}
	run := func(momentum float64) float64 {
		rng := rand.New(rand.NewSource(8))
		samples := gen(rng, 200)
		net := NewMLP([]int{2, 8, 2}, rand.New(rand.NewSource(5)))
		opt, _ := NewSGD(0.02, momentum)
		const batch = 16
		var loss float64
		for epoch := 0; epoch < 10; epoch++ {
			loss = 0
			for start := 0; start < len(samples); start += batch {
				end := min(start+batch, len(samples))
				net.ZeroGrad()
				for _, s := range samples[start:end] {
					loss += net.LossAndBackward(net.Forward(s.X), s.Label)
				}
				opt.Step(net, end-start)
			}
			loss /= float64(len(samples))
		}
		return loss
	}
	plain := run(0)
	mom := run(0.9)
	if mom >= plain {
		t.Errorf("momentum loss %v not below plain %v after equal epochs", mom, plain)
	}
}
