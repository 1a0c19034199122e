package nn

import (
	"math/rand"
	"testing"
)

// TestWeightsRoundTrip asserts Weights/SetWeights is a bit-exact
// round-trip in the Gradients layout.
func TestWeightsRoundTrip(t *testing.T) {
	src := NewMLP([]int{4, 7, 3}, rand.New(rand.NewSource(11)))
	dst := NewMLP([]int{4, 7, 3}, rand.New(rand.NewSource(99)))

	w := src.Weights()
	if len(w) != src.NumParams() {
		t.Fatalf("Weights() length = %d, want %d", len(w), src.NumParams())
	}
	if err := dst.SetWeights(w); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	for li := range src.Layers {
		for i := range src.Layers[li].W {
			if dst.Layers[li].W[i] != src.Layers[li].W[i] {
				t.Fatalf("layer %d W[%d] differs after round-trip", li, i)
			}
		}
		for i := range src.Layers[li].B {
			if dst.Layers[li].B[i] != src.Layers[li].B[i] {
				t.Fatalf("layer %d B[%d] differs after round-trip", li, i)
			}
		}
	}

	// The returned slice is a copy: mutating it must not touch the net.
	before := src.Layers[0].W[0]
	w[0] += 42
	if src.Layers[0].W[0] != before {
		t.Fatal("mutating Weights() result changed the network")
	}

	if err := dst.SetWeights(w[:len(w)-1]); err == nil {
		t.Fatal("SetWeights accepted a short vector")
	}
}

// TestVelocityRoundTrip asserts that restoring optimizer velocity into a
// fresh SGD makes subsequent steps bit-identical to the original.
func TestVelocityRoundTrip(t *testing.T) {
	mkNet := func() *Network { return NewMLP([]int{3, 5, 2}, rand.New(rand.NewSource(7))) }
	x := []float64{0.5, -0.3, 1.2}

	a := mkNet()
	optA, _ := NewSGD(0.1, 0.9)
	if optA.Velocity() != nil {
		t.Fatal("Velocity() before first step should be nil")
	}
	for k := 0; k < 3; k++ {
		a.ZeroGrad()
		a.LossAndBackward(a.Forward(x), 1)
		optA.Step(a, 1)
	}

	// Snapshot weights + velocity, restore into fresh net/optimizer.
	b := mkNet()
	if err := b.SetWeights(a.Weights()); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	optB, _ := NewSGD(0.1, 0.9)
	v := optA.Velocity()
	if len(v) != a.NumParams() {
		t.Fatalf("Velocity() length = %d, want %d", len(v), a.NumParams())
	}
	if err := optB.SetVelocity(b, v); err != nil {
		t.Fatalf("SetVelocity: %v", err)
	}

	// Two more steps on each must stay bit-identical.
	for k := 0; k < 2; k++ {
		a.ZeroGrad()
		a.LossAndBackward(a.Forward(x), 1)
		optA.Step(a, 1)
		b.ZeroGrad()
		b.LossAndBackward(b.Forward(x), 1)
		optB.Step(b, 1)
	}
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("weight %d diverged after velocity restore: %v vs %v", i, wa[i], wb[i])
		}
	}

	// Velocity() must be a copy.
	v2 := optA.Velocity()
	v2[0] += 1
	if optA.Velocity()[0] == v2[0] {
		t.Fatal("mutating Velocity() result changed optimizer state")
	}

	// Bad sizes rejected; nil resets.
	if err := optB.SetVelocity(b, v[:1]); err == nil {
		t.Fatal("SetVelocity accepted a short vector")
	}
	if err := optB.SetVelocity(b, nil); err != nil {
		t.Fatalf("SetVelocity(nil): %v", err)
	}
	if optB.Velocity() != nil {
		t.Fatal("SetVelocity(nil) did not reset state")
	}
}
