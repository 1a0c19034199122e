package nn

import "fmt"

// SGD is a stateful optimizer with optional momentum — the update rule
// of the paper's workloads (large-minibatch SGD per Goyal et al. [13],
// which the paper cites for its batch-size argument).
type SGD struct {
	// LR is the learning rate.
	LR float64
	// Momentum is the velocity coefficient (0 = plain SGD).
	Momentum float64

	velocity [][]float64 // per layer: W then B, lazily initialized
}

// NewSGD constructs an optimizer.
func NewSGD(lr, momentum float64) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: learning rate %v must be positive", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("nn: momentum %v outside [0,1)", momentum)
	}
	return &SGD{LR: lr, Momentum: momentum}, nil
}

// Step applies one update from the network's accumulated gradients,
// scaled by 1/batch, and leaves the gradients untouched (call ZeroGrad
// before the next accumulation as usual).
func (o *SGD) Step(n *Network, batch int) {
	if batch <= 0 {
		batch = 1
	}
	if o.velocity == nil {
		o.velocity = make([][]float64, 2*len(n.Layers))
		for i, l := range n.Layers {
			o.velocity[2*i] = make([]float64, len(l.W))
			o.velocity[2*i+1] = make([]float64, len(l.B))
		}
	}
	inv := 1 / float64(batch)
	for i, l := range n.Layers {
		vw, vb := o.velocity[2*i], o.velocity[2*i+1]
		for j := range l.W {
			g := l.GradW[j] * inv
			vw[j] = o.Momentum*vw[j] + g
			l.W[j] -= o.LR * vw[j]
		}
		for j := range l.B {
			g := l.GradB[j] * inv
			vb[j] = o.Momentum*vb[j] + g
			l.B[j] -= o.LR * vb[j]
		}
	}
}

// Velocity flattens the momentum state into one vector with the
// Weights layout (layer0.W, layer0.B, layer1.W, …). It returns nil when
// the optimizer has not stepped yet (state is all zero). The returned
// slice is a copy.
func (o *SGD) Velocity() []float64 {
	if o.velocity == nil {
		return nil
	}
	total := 0
	for _, v := range o.velocity {
		total += len(v)
	}
	out := make([]float64, 0, total)
	for _, v := range o.velocity {
		out = append(out, v...)
	}
	return out
}

// SetVelocity overwrites the momentum state from a flat vector with the
// Weights layout, sized for the given network. A nil or empty vector
// resets the optimizer to the pre-first-step state. It is how a
// checkpoint restores optimizer state.
func (o *SGD) SetVelocity(n *Network, flat []float64) error {
	if len(flat) == 0 {
		o.velocity = nil
		return nil
	}
	if len(flat) != n.NumParams() {
		return fmt.Errorf("nn: velocity vector has %d entries, want %d", len(flat), n.NumParams())
	}
	v := make([][]float64, 2*len(n.Layers))
	off := 0
	for i, l := range n.Layers {
		v[2*i] = append([]float64(nil), flat[off:off+len(l.W)]...)
		off += len(l.W)
		v[2*i+1] = append([]float64(nil), flat[off:off+len(l.B)]...)
		off += len(l.B)
	}
	o.velocity = v
	return nil
}
