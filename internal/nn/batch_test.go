package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refLayer is the differential oracle: the per-sample dense layer the
// minibatch kernel replaced, one Forward and one Backward per sample,
// over the same weights.
type refLayer struct {
	in, out   int
	w, b      []float64
	relu      bool
	gw, gb    []float64
	lastInput []float64
	lastPre   []float64
}

func (l *refLayer) forward(x []float64) []float64 {
	l.lastInput = append(l.lastInput[:0], x...)
	l.lastPre = make([]float64, l.out)
	out := make([]float64, l.out)
	for o := 0; o < l.out; o++ {
		sum := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, v := range x {
			sum += row[i] * v
		}
		l.lastPre[o] = sum
		if l.relu && sum < 0 {
			sum = 0
		}
		out[o] = sum
	}
	return out
}

func (l *refLayer) backward(gradOut []float64) []float64 {
	gradIn := make([]float64, l.in)
	for o := 0; o < l.out; o++ {
		g := gradOut[o]
		if l.relu && l.lastPre[o] <= 0 {
			g = 0
		}
		l.gb[o] += g
		row := l.w[o*l.in : (o+1)*l.in]
		grow := l.gw[o*l.in : (o+1)*l.in]
		for i := range row {
			grow[i] += g * l.lastInput[i]
			gradIn[i] += g * row[i]
		}
	}
	return gradIn
}

func refSoftmax(logits []float64) []float64 {
	maxV := math.Inf(-1)
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - maxV)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// refTrain runs batch one sample at a time through per-sample layers
// sharing net's weights and returns the summed loss, the flat gradients
// in the Gradients layout, and every sample's logits.
func refTrain(net *Network, batch []Sample) (float64, []float64, [][]float64) {
	layers := make([]*refLayer, len(net.Layers))
	for i, l := range net.Layers {
		layers[i] = &refLayer{in: l.In, out: l.Out, w: l.W, b: l.B, relu: l.ReLU,
			gw: make([]float64, len(l.W)), gb: make([]float64, len(l.B))}
	}
	var loss float64
	var logits [][]float64
	for _, s := range batch {
		x := s.X
		for _, l := range layers {
			x = l.forward(x)
		}
		logits = append(logits, x)
		probs := refSoftmax(x)
		loss += -math.Log(math.Max(probs[s.Label], 1e-12))
		grad := append([]float64(nil), probs...)
		grad[s.Label] -= 1
		for i := len(layers) - 1; i >= 0; i-- {
			grad = layers[i].backward(grad)
		}
	}
	var flat []float64
	for _, l := range layers {
		flat = append(append(flat, l.gw...), l.gb...)
	}
	return loss, flat, logits
}

// batchCase builds a network and a k-sample batch from seed. dead&4 draws
// random biases (they start at zero); dead&1 drives every other
// first-layer bias far negative (units dead for every sample); dead&2
// zeroes every third sample's input (pre-activations equal the biases,
// so with zero biases the ReLU mask sees ±0).
func batchCase(widths []int, seed int64, k int, dead uint8) (*Network, []Sample) {
	rng := rand.New(rand.NewSource(seed))
	net := NewMLP(widths, rand.New(rand.NewSource(seed^0x5eed)))
	if dead&4 != 0 {
		for _, l := range net.Layers {
			for o := range l.B {
				l.B[o] = rng.NormFloat64() / 4
			}
		}
	}
	if dead&1 != 0 {
		for o := range net.Layers[0].B {
			if o%2 == 0 {
				net.Layers[0].B[o] = -1e3
			}
		}
	}
	batch := make([]Sample, k)
	for s := range batch {
		x := make([]float64, widths[0])
		if dead&2 == 0 || s%3 != 0 {
			for i := range x {
				x[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(9)-4))
			}
		}
		batch[s] = Sample{X: x, Label: rng.Intn(widths[len(widths)-1])}
	}
	return net, batch
}

// checkBatchMatchesPerSample asserts that TrainBatch and k single-sample
// Forward + LossAndBackward calls both reproduce the per-sample oracle
// bit for bit: loss, logits, every gradient, and the weights after one
// SGD step.
func checkBatchMatchesPerSample(t *testing.T, widths []int, seed int64, k int, dead uint8) {
	t.Helper()
	label := fmt.Sprintf("widths %v seed %d k %d dead %d", widths, seed, k, dead)
	net, batch := batchCase(widths, seed, k, dead)
	single, _ := batchCase(widths, seed, k, dead)
	oracle, _ := batchCase(widths, seed, k, dead)

	wantLoss, wantGrad, wantLogits := refTrain(oracle, batch)
	gotLoss := net.TrainBatch(batch)
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("%s: TrainBatch loss %v, oracle %v", label, gotLoss, wantLoss)
	}
	var singleLoss float64
	for s, smp := range batch {
		logits := single.Forward(smp.X)
		for o, v := range logits {
			if math.Float64bits(v) != math.Float64bits(wantLogits[s][o]) {
				t.Fatalf("%s: sample %d logit %d: %v, oracle %v", label, s, o, v, wantLogits[s][o])
			}
		}
		singleLoss += single.LossAndBackward(logits, smp.Label)
	}
	if math.Float64bits(singleLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("%s: single-sample loss %v, oracle %v", label, singleLoss, wantLoss)
	}
	for name, got := range map[string][]float64{"TrainBatch": net.Gradients(), "single-sample": single.Gradients()} {
		for i, g := range got {
			if math.Float64bits(g) != math.Float64bits(wantGrad[i]) {
				t.Fatalf("%s: %s gradient %d: %v, oracle %v", label, name, i, g, wantGrad[i])
			}
		}
	}

	copy(oracle.GradientBuffer(), wantGrad)
	for _, n := range []*Network{net, oracle} {
		opt, err := NewSGD(0.05, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step(n, k)
	}
	got, want := net.Weights(), oracle.Weights()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: weight %d after SGD.Step: %v, oracle %v", label, i, got[i], want[i])
		}
	}
}

// TestTrainBatchMatchesPerSample pins the minibatch kernel to the
// per-sample oracle across depths, every batch size from 1 to 9 (each
// remainder of the four-sample groups), bias draws and dead-unit
// patterns.
func TestTrainBatchMatchesPerSample(t *testing.T) {
	for _, widths := range [][]int{{5, 7, 3}, {4, 6, 5, 3}, {9, 1, 2}, {3, 8, 1}} {
		for k := 1; k <= 9; k++ {
			for dead := uint8(0); dead < 8; dead++ {
				checkBatchMatchesPerSample(t, widths, int64(k*7+int(dead)), k, dead)
			}
		}
	}
}

func FuzzTrainBatchMatchesPerSample(f *testing.F) {
	f.Add(int64(1), uint8(8), false, uint8(0))
	f.Add(int64(2), uint8(5), true, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, k uint8, deep bool, dead uint8) {
		rng := rand.New(rand.NewSource(seed))
		widths := []int{1 + rng.Intn(12), 1 + rng.Intn(10)}
		if deep {
			widths = append(widths, 1+rng.Intn(10))
		}
		widths = append(widths, 1+rng.Intn(5))
		checkBatchMatchesPerSample(t, widths, seed, 1+int(k)%9, dead)
	})
}

// workloadBatch is the step-bound benchmark workload's replica step:
// widths {3136, 256, 4}, eight samples.
func workloadBatch() (*Network, []Sample) {
	return batchCase([]int{3136, 256, 4}, 1, 8, 0)
}

func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	net, batch := workloadBatch()
	net.TrainBatch(batch)
	if a := testing.AllocsPerRun(3, func() {
		net.ZeroGrad()
		net.TrainBatch(batch)
	}); a != 0 {
		t.Errorf("warm TrainBatch allocates %v times per call, want 0", a)
	}
	x := batch[0].X
	if a := testing.AllocsPerRun(3, func() {
		net.LossAndBackward(net.Forward(x), 1)
	}); a != 0 {
		t.Errorf("warm Forward + LossAndBackward allocates %v times per call, want 0", a)
	}
}

var benchLoss float64

func BenchmarkTrainBatch(b *testing.B) {
	net, batch := workloadBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		benchLoss = net.TrainBatch(batch)
	}
}
