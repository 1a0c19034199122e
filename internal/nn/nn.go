// Package nn implements a small, from-scratch neural network (dense
// layers, ReLU, softmax cross-entropy, SGD) on float64 slices.
//
// Its two jobs in the TrainBox reproduction:
//
//  1. demonstrate the paper's Figure 5 claim — training with on-line data
//     augmentation reaches higher held-out accuracy than training
//     without it — using the *real* augmentation kernels from
//     internal/imgproc, and
//  2. produce genuine gradient vectors for the ring all-reduce in
//     internal/collective, so model synchronization is exercised on real
//     data rather than zeros.
//
// The paper treats model computation as a black-box throughput source
// (TPU measurements); this package is a correct learner with one
// minibatch kernel (TrainBatch) whose bits equal a one-sample-at-a-time
// pass, so the training driver's step costs its operation count.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one dense layer with optional ReLU activation.
type Layer struct {
	In, Out int
	// W is row-major Out×In; B has Out entries.
	W, B []float64
	ReLU bool

	// GradW and GradB accumulate gradients, same shapes as W and B; they
	// are views into the network's flat gradient buffer.
	GradW, GradB []float64

	// Minibatch scratch, sized on first use for the largest batch seen:
	// in[s] is sample s's input (the caller's slice for the first layer,
	// a row of the layer below's act otherwise); act and delta hold the
	// samples' activations and the loss gradients with respect to them,
	// one Out-wide row per sample.
	in         [][]float64
	act, delta []float64
}

// newLayer creates a dense layer with He-initialized weights whose
// gradients live in grad (in·out + out entries).
func newLayer(in, out int, relu bool, grad []float64, rng *rand.Rand) *Layer {
	l := &Layer{
		In: in, Out: out, ReLU: relu,
		W: make([]float64, in*out), B: make([]float64, out),
		GradW: grad[:in*out], GradB: grad[in*out:],
	}
	scale := math.Sqrt(2 / float64(in))
	for i := range l.W {
		l.W[i] = rng.NormFloat64() * scale
	}
	return l
}

// reserve sizes the layer's scratch for a k-sample minibatch.
func (l *Layer) reserve(k int) {
	if len(l.in) < k {
		l.in = make([][]float64, k)
		l.act = make([]float64, k*l.Out)
		l.delta = make([]float64, k*l.Out)
	}
}

// forward computes the activations of the first k inputs. Each weight
// row is read once per group of up to four samples, and every sample
// keeps its own accumulator summed in input order, so the bits equal a
// one-sample-at-a-time pass.
func (l *Layer) forward(k int) {
	for o := 0; o < l.Out; o++ {
		row := l.W[o*l.In : (o+1)*l.In]
		s := 0
		for ; s+4 <= k; s += 4 {
			x0, x1, x2, x3 := l.in[s][:len(row)], l.in[s+1][:len(row)], l.in[s+2][:len(row)], l.in[s+3][:len(row)]
			a0, a1, a2, a3 := l.B[o], l.B[o], l.B[o], l.B[o]
			for i, w := range row {
				a0 += w * x0[i]
				a1 += w * x1[i]
				a2 += w * x2[i]
				a3 += w * x3[i]
			}
			l.setAct(s, o, a0)
			l.setAct(s+1, o, a1)
			l.setAct(s+2, o, a2)
			l.setAct(s+3, o, a3)
		}
		for ; s < k; s++ {
			x := l.in[s][:len(row)]
			a := l.B[o]
			for i, w := range row {
				a += w * x[i]
			}
			l.setAct(s, o, a)
		}
	}
}

// setAct stores sample s's activation of unit o from its
// pre-activation.
func (l *Layer) setAct(s, o int, pre float64) {
	if l.ReLU && pre < 0 {
		pre = 0
	}
	l.act[s*l.Out+o] = pre
}

// backward accumulates the layer's gradients for the first k samples
// from delta and, when below is non-nil, writes the gradients with
// respect to the layer's inputs into below.delta (the first layer's
// input gradient has no reader). A sample whose gradient is zero after
// the ReLU mask is skipped: its terms are ±0, which leaves a finite
// accumulator that started at +0 unchanged. The rest are added in sample
// order, four per pass over a gradient row, so every element keeps the
// summation order of a one-sample-at-a-time pass.
func (l *Layer) backward(k int, below *Layer) {
	var gin []float64
	if below != nil {
		gin = below.delta[:k*l.In]
		clear(gin)
	}
	for o := 0; o < l.Out; o++ {
		row := l.W[o*l.In : (o+1)*l.In]
		grow := l.GradW[o*l.In : (o+1)*l.In]
		var gs [4]float64
		var xs [4][]float64
		m := 0
		for s := 0; s < k; s++ {
			g := l.delta[s*l.Out+o]
			// act ≤ 0 exactly when the pre-activation is ≤ 0.
			if g == 0 || l.ReLU && l.act[s*l.Out+o] <= 0 {
				continue
			}
			l.GradB[o] += g
			if gin != nil {
				gi := gin[s*l.In : (s+1)*l.In]
				for i, w := range row {
					gi[i] += g * w
				}
			}
			gs[m], xs[m] = g, l.in[s]
			if m++; m == 4 {
				addRows4(grow, gs, xs)
				m = 0
			}
		}
		for j := 0; j < m; j++ {
			g, x := gs[j], xs[j][:len(grow)]
			for i := range grow {
				grow[i] += g * x[i]
			}
		}
	}
}

// addRows4 adds g[j]·x[j] for j = 0…3, in that order, to every element of
// grow, loading and storing each element once.
func addRows4(grow []float64, g [4]float64, x [4][]float64) {
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	x0, x1, x2, x3 := x[0][:len(grow)], x[1][:len(grow)], x[2][:len(grow)], x[3][:len(grow)]
	for i, v := range grow {
		grow[i] = v + g0*x0[i] + g1*x1[i] + g2*x2[i] + g3*x3[i]
	}
}

// lossGrad writes the softmax cross-entropy gradient of sample s's
// logits against label into its delta row and returns the loss.
func (l *Layer) lossGrad(s int, logits []float64, label int) float64 {
	d := l.delta[s*l.Out : (s+1)*l.Out]
	softmaxInto(d, logits)
	loss := -math.Log(math.Max(d[label], 1e-12))
	d[label] -= 1
	return loss
}

// Step applies SGD with the given learning rate, scaling gradients by
// 1/batch.
func (l *Layer) Step(lr float64, batch int) {
	scale := lr / float64(batch)
	for i := range l.W {
		l.W[i] -= scale * l.GradW[i]
	}
	for i := range l.B {
		l.B[i] -= scale * l.GradB[i]
	}
}

// Network is a feed-forward stack of dense layers ending in logits.
type Network struct {
	Layers []*Layer

	grad []float64 // every layer's GradW then GradB, in the Gradients layout
}

// NewMLP builds a multilayer perceptron with the given layer widths;
// hidden layers use ReLU, the final layer emits logits.
func NewMLP(widths []int, rng *rand.Rand) *Network {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	total := 0
	for i := 0; i+1 < len(widths); i++ {
		total += widths[i]*widths[i+1] + widths[i+1]
	}
	net := &Network{grad: make([]float64, total)}
	off := 0
	for i := 0; i+1 < len(widths); i++ {
		size := widths[i]*widths[i+1] + widths[i+1]
		relu := i+2 < len(widths)
		net.Layers = append(net.Layers, newLayer(widths[i], widths[i+1], relu, net.grad[off:off+size], rng))
		off += size
	}
	return net
}

// TrainBatch is the network's forward → loss → backward pass: it runs
// batch as one minibatch, accumulates every sample's gradients, and
// returns the softmax cross-entropy loss summed in sample order. The
// weights are read once per group of up to four samples; the loss,
// gradients and activations are bit-identical to running the samples
// one at a time through Forward and LossAndBackward (for finite inputs).
func (n *Network) TrainBatch(batch []Sample) float64 {
	k := len(batch)
	n.reserve(k)
	for s, smp := range batch {
		n.setInput(s, smp.X)
	}
	n.forward(k)
	last := n.Layers[len(n.Layers)-1]
	var total float64
	for s, smp := range batch {
		total += last.lossGrad(s, last.act[s*last.Out:(s+1)*last.Out], smp.Label)
	}
	n.backward(k)
	return total
}

func (n *Network) reserve(k int) {
	for _, l := range n.Layers {
		l.reserve(k)
	}
}

func (n *Network) setInput(s int, x []float64) {
	l := n.Layers[0]
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: layer expects %d inputs, got %d", l.In, len(x)))
	}
	l.in[s] = x
}

func (n *Network) forward(k int) {
	for i, l := range n.Layers {
		l.forward(k)
		if i+1 < len(n.Layers) {
			next := n.Layers[i+1]
			for s := 0; s < k; s++ {
				next.in[s] = l.act[s*l.Out : (s+1)*l.Out]
			}
		}
	}
}

func (n *Network) backward(k int) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		var below *Layer
		if i > 0 {
			below = n.Layers[i-1]
		}
		n.Layers[i].backward(k, below)
	}
}

// Forward runs the network on one input and returns the logits. The
// logits live in the network's scratch until its next Forward or
// TrainBatch, and x is read again by a LossAndBackward that follows.
func (n *Network) Forward(x []float64) []float64 {
	n.reserve(1)
	n.setInput(0, x)
	n.forward(1)
	last := n.Layers[len(n.Layers)-1]
	return last.act[:last.Out]
}

// softmaxInto writes the softmax of logits into p (numerically
// stabilized).
func softmaxInto(p, logits []float64) {
	maxV := math.Inf(-1)
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range logits {
		p[i] = math.Exp(v - maxV)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
}

// LossAndBackward computes softmax cross-entropy loss against the label,
// backpropagates, and accumulates gradients: TrainBatch's second half
// for one sample. Forward must have been called for this sample
// immediately before.
func (n *Network) LossAndBackward(logits []float64, label int) float64 {
	last := n.Layers[len(n.Layers)-1]
	if len(logits) != last.Out {
		panic(fmt.Sprintf("nn: loss expects %d logits, got %d", last.Out, len(logits)))
	}
	loss := last.lossGrad(0, logits, label)
	n.backward(1)
	return loss
}

// ZeroGrad clears all layer gradients.
func (n *Network) ZeroGrad() {
	clear(n.grad)
}

// Step applies SGD to every layer.
func (n *Network) Step(lr float64, batch int) {
	for _, l := range n.Layers {
		l.Step(lr, batch)
	}
}

// Predict returns the argmax class of the logits for x.
func (n *Network) Predict(x []float64) int {
	logits := n.Forward(x)
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// NumParams returns the total learnable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// Gradients returns a copy of all accumulated gradients as one vector,
// the unit of model synchronization. Layout: layer0.W, layer0.B,
// layer1.W, …
func (n *Network) Gradients() []float64 {
	return append([]float64(nil), n.grad...)
}

// GradientBuffer returns the live gradient vector in the Gradients
// layout, without copying: every layer's GradW and GradB are views into
// it, so reducing or scaling it in place changes what Step and SGD.Step
// apply.
func (n *Network) GradientBuffer() []float64 { return n.grad }

// Weights flattens all learnable parameters into one vector using the
// Gradients layout (layer0.W, layer0.B, layer1.W, …). The returned slice
// is a copy; mutating it does not touch the network.
func (n *Network) Weights() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.Layers {
		out = append(out, l.W...)
		out = append(out, l.B...)
	}
	return out
}

// SetWeights overwrites all learnable parameters from a flat vector with
// the Weights layout; it is how a checkpoint restores a network.
func (n *Network) SetWeights(flat []float64) error {
	if len(flat) != n.NumParams() {
		return fmt.Errorf("nn: weight vector has %d entries, want %d", len(flat), n.NumParams())
	}
	off := 0
	for _, l := range n.Layers {
		off += copy(l.W, flat[off:off+len(l.W)])
		off += copy(l.B, flat[off:off+len(l.B)])
	}
	return nil
}

// Sample is one training example.
type Sample struct {
	X     []float64
	Label int
}

// TrainEpoch runs one epoch of minibatch SGD over samples (in order) and
// returns the mean loss.
func (n *Network) TrainEpoch(samples []Sample, batch int, lr float64) float64 {
	if batch <= 0 {
		batch = 1
	}
	var total float64
	for start := 0; start < len(samples); start += batch {
		end := min(start+batch, len(samples))
		n.ZeroGrad()
		total += n.TrainBatch(samples[start:end])
		n.Step(lr, end-start)
	}
	return total / float64(len(samples))
}

// Accuracy returns the fraction of samples the network classifies
// correctly.
func (n *Network) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if n.Predict(s.X) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
