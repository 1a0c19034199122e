package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLayerForwardLinear(t *testing.T) {
	net := NewMLP([]int{2, 1}, rand.New(rand.NewSource(1)))
	l := net.Layers[0]
	copy(l.W, []float64{2, 3})
	l.B[0] = 1
	out := net.Forward([]float64{4, 5})
	if out[0] != 2*4+3*5+1 {
		t.Errorf("forward = %v, want 24", out[0])
	}
}

func TestLayerReLUClamps(t *testing.T) {
	net := NewMLP([]int{1, 1, 2}, rand.New(rand.NewSource(1)))
	hidden := net.Layers[0]
	hidden.W[0], hidden.B[0] = -1, 0
	net.Forward([]float64{5})
	if hidden.act[0] != 0 {
		t.Errorf("ReLU output = %v, want 0", hidden.act[0])
	}
	// Gradient through a dead ReLU is zero.
	net.LossAndBackward(net.Forward([]float64{5}), 0)
	if hidden.GradW[0] != 0 || hidden.GradB[0] != 0 {
		t.Errorf("dead ReLU leaked gradient: gradW=%v gradB=%v", hidden.GradW[0], hidden.GradB[0])
	}
	if out := net.Layers[1]; out.GradB[0] == 0 {
		t.Error("output layer received no gradient")
	}
}

func TestLayerShapePanics(t *testing.T) {
	net := NewMLP([]int{3, 2}, rand.New(rand.NewSource(1)))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad input", func() { net.Forward([]float64{1}) })
	mustPanic("bad batch input", func() { net.TrainBatch([]Sample{{X: []float64{1, 2}}}) })
	net.Forward([]float64{1, 2, 3})
	mustPanic("bad logits", func() { net.LossAndBackward([]float64{1}, 0) })
	mustPanic("bad label", func() { net.LossAndBackward(net.Forward([]float64{1, 2, 3}), 2) })
}

// TestGradientsMatchNumericalDerivative is the canonical backprop check:
// analytic gradients must match central finite differences.
func TestGradientsMatchNumericalDerivative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewMLP([]int{4, 5, 3}, rng)
	x := []float64{0.3, -0.2, 0.8, 0.1}
	label := 2

	net.ZeroGrad()
	logits := net.Forward(x)
	net.LossAndBackward(logits, label)
	analytic := net.Gradients()

	const eps = 1e-6
	idx := 0
	for li, l := range net.Layers {
		for wi := range l.W {
			orig := l.W[wi]
			l.W[wi] = orig + eps
			lossP := lossOf(net, x, label)
			l.W[wi] = orig - eps
			lossM := lossOf(net, x, label)
			l.W[wi] = orig
			numeric := (lossP - lossM) / (2 * eps)
			if math.Abs(numeric-analytic[idx]) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d W[%d]: analytic %v vs numeric %v", li, wi, analytic[idx], numeric)
			}
			idx++
		}
		for bi := range l.B {
			orig := l.B[bi]
			l.B[bi] = orig + eps
			lossP := lossOf(net, x, label)
			l.B[bi] = orig - eps
			lossM := lossOf(net, x, label)
			l.B[bi] = orig
			numeric := (lossP - lossM) / (2 * eps)
			if math.Abs(numeric-analytic[idx]) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d B[%d]: analytic %v vs numeric %v", li, bi, analytic[idx], numeric)
			}
			idx++
		}
	}
}

func lossOf(net *Network, x []float64, label int) float64 {
	logits := net.Forward(x)
	probs := make([]float64, len(logits))
	softmaxInto(probs, logits)
	return -math.Log(math.Max(probs[label], 1e-12))
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logits := make([]float64, 1+rng.Intn(10))
		for i := range logits {
			logits[i] = rng.NormFloat64() * 10
		}
		p := make([]float64, len(logits))
		softmaxInto(p, logits)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxHugeLogitsStable(t *testing.T) {
	p := make([]float64, 3)
	softmaxInto(p, []float64{1000, 1000, -1000})
	if math.IsNaN(p[0]) || math.Abs(p[0]-0.5) > 1e-9 {
		t.Errorf("softmax unstable: %v", p)
	}
}

func TestGradientsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP([]int{3, 4, 2}, rng)
	net.Forward([]float64{1, 2, 3})
	net.LossAndBackward(net.Forward([]float64{1, 2, 3}), 0)
	g := net.Gradients()
	if len(g) != net.NumParams() {
		t.Fatalf("gradient length %d, want %d", len(g), net.NumParams())
	}
	// Double every gradient and write back through the live buffer.
	for i := range g {
		g[i] *= 2
	}
	copy(net.GradientBuffer(), g)
	g2 := net.Gradients()
	for i := range g {
		if g2[i] != g[i] {
			t.Fatal("GradientBuffer/Gradients round trip failed")
		}
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP([]int{10, 7, 3}, rng)
	want := 10*7 + 7 + 7*3 + 3
	if got := net.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

func TestNewMLPRequiresTwoWidths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-width MLP did not panic")
		}
	}()
	NewMLP([]int{5}, rand.New(rand.NewSource(1)))
}

// TestTrainingLearnsLinearlySeparableTask: a network trained on a simple
// separable problem must reach high accuracy — the minimum bar for "this
// is a real learner".
func TestTrainingLearnsLinearlySeparableTask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var train, test []Sample
	gen := func(n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			label := 0
			if x[0]+x[1] > 0 {
				label = 1
			}
			out[i] = Sample{X: x, Label: label}
		}
		return out
	}
	train, test = gen(400), gen(200)
	net := NewMLP([]int{2, 8, 2}, rng)
	for epoch := 0; epoch < 30; epoch++ {
		net.TrainEpoch(train, 16, 0.1)
	}
	if acc := net.Accuracy(test); acc < 0.93 {
		t.Errorf("accuracy = %v, want ≥ 0.93", acc)
	}
}

func TestTrainEpochReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]Sample, 100)
	for i := range samples {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		label := 0
		if x[0] > 0.2 {
			label = 1
		} else if x[1] < -0.2 {
			label = 2
		}
		samples[i] = Sample{X: x, Label: label}
	}
	net := NewMLP([]int{3, 10, 3}, rng)
	first := net.TrainEpoch(samples, 10, 0.1)
	var last float64
	for i := 0; i < 20; i++ {
		last = net.TrainEpoch(samples, 10, 0.1)
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %v, last %v", first, last)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	net := NewMLP([]int{2, 2}, rand.New(rand.NewSource(1)))
	if acc := net.Accuracy(nil); acc != 0 {
		t.Errorf("empty accuracy = %v", acc)
	}
}

func TestZeroGradClears(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewMLP([]int{2, 3, 2}, rng)
	net.LossAndBackward(net.Forward([]float64{1, -1}), 1)
	net.ZeroGrad()
	for _, g := range net.Gradients() {
		if g != 0 {
			t.Fatal("ZeroGrad left non-zero gradient")
		}
	}
}
