package core

import (
	"fmt"
	"math"
	"testing"

	"trainbox/internal/arch"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// BoxTransferResult is the measured behaviour of the in-box transfer
// replay.
type BoxTransferResult struct {
	// Throughput is the measured sample rate of one train box's fabric.
	Throughput units.SamplesPerSec
	// Elapsed is the simulated makespan.
	Elapsed float64
	// Transfers counts completed DMA operations.
	Transfers int
}

// SimulateBoxTransfers replays one train box's per-sample DMAs through
// the fluid-flow PCIe network simulator: chunks of samples move
// SSD→FPGA (stored bytes) and FPGA→accelerator (tensor bytes) as
// concurrent transfers on the real topology, with max-min fair link
// sharing. It validates the analytical per-link accounting (LinkLoad)
// with actual contention dynamics rather than static sums: the measured
// steady-state rate must match Solve's pcie-link constraint per box.
//
// FPGA compute and SSD read-bandwidth limits are excluded on purpose —
// this replay isolates the fabric, the one component whose sharing
// behaviour is nontrivial.
func SimulateBoxTransfers(sys *arch.System, w workload.Workload, chunks, chunkSamples int) (BoxTransferResult, error) {
	if !sys.Config.Kind.Clustered() || len(sys.Boxes) == 0 {
		return BoxTransferResult{}, fmt.Errorf("core: box replay needs a clustered system")
	}
	if chunks <= 0 || chunkSamples <= 0 {
		return BoxTransferResult{}, fmt.Errorf("core: invalid replay size %d×%d", chunks, chunkSamples)
	}
	box := sys.Boxes[0]
	eng := &engine{}
	net := newNetwork(eng, sys.Topo)

	stored := units.Bytes(float64(w.Prep.StoredBytes) * float64(chunkSamples))
	tensor := units.Bytes(float64(w.Prep.TensorBytes) * float64(chunkSamples))

	// Each chunk: one SSD→FPGA transfer then one FPGA→accel transfer,
	// round-robin across the box's devices, with bounded concurrency to
	// keep the fabric saturated. The initial window is staggered: equal-
	// size transfers released simultaneously phase-lock into a convoy
	// (all chunks in the stored leg together, then all in the tensor leg
	// together, leaving each link idle half the time), which is an
	// artifact of synchronized release, not of the fabric — production
	// pipelines start samples as they arrive.
	const inFlight = 32
	launched, finished := 0, 0
	transfers := 0
	var finish float64
	soloStored := float64(stored) / float64(sys.Topo.LinkOf(box.SSDs[0]).Bandwidth)
	var launch func()
	launch = func() {
		for launched < chunks && launched-finished < inFlight {
			c := launched
			launched++
			ssd := box.SSDs[c%len(box.SSDs)]
			fp := box.FPGAs[c%len(box.FPGAs)]
			acc := box.Accels[c%len(box.Accels)]
			start := func() {
				net.Start(ssd, fp, stored, func() {
					transfers++
					net.Start(fp, acc, tensor, func() {
						transfers++
						finished++
						finish = eng.Now()
						launch()
					})
				})
			}
			if c < inFlight {
				// Stagger the initial window so the two legs interleave
				// from the start.
				eng.At(float64(c)*soloStored/2, start)
			} else {
				start()
			}
		}
	}
	launch()
	eng.SetStepLimit(uint64(chunks)*64 + 1024)
	if err := eng.Run(); err != nil {
		return BoxTransferResult{}, err
	}
	if finished != chunks {
		return BoxTransferResult{}, fmt.Errorf("core: box replay stalled at %d/%d", finished, chunks)
	}
	return BoxTransferResult{
		Throughput: units.SamplesPerSec(float64(chunks*chunkSamples) / finish),
		Elapsed:    finish,
		Transfers:  transfers,
	}, nil
}

// TestBoxReplayMatchesAnalyticFabricRate drives real concurrent DMAs
// through the fluid-flow PCIe simulator on a train-box topology and
// checks the steady rate against Solve's static per-link accounting,
// the pcie-link constraint divided across the boxes. The
// two models share no code path (max-min-fair dynamics vs byte sums), so
// agreement validates both.
func TestBoxReplayMatchesAnalyticFabricRate(t *testing.T) {
	for _, name := range []string{"Resnet-50", "TF-AA"} {
		w, _ := workload.ByName(name)
		sys := mustBuild(t, arch.Config{Kind: arch.TrainBoxNoPool, NumAccels: 8})
		res, err := Solve(sys, w)
		if err != nil {
			t.Fatal(err)
		}
		analytic := res.Constraints[ConstraintLink] / units.SamplesPerSec(len(sys.Boxes))
		replay, err := SimulateBoxTransfers(sys, w, 400, 16)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(replay.Throughput)-float64(analytic)) / float64(analytic)
		if rel > 0.08 {
			t.Errorf("%s: replay %v vs analytic %v (%.1f%% apart)",
				name, replay.Throughput, analytic, 100*rel)
		}
		if replay.Transfers != 800 {
			t.Errorf("%s: transfers = %d, want 800", name, replay.Transfers)
		}
	}
}

func TestBoxReplayValidation(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	flat := mustBuild(t, arch.Config{Kind: arch.Baseline, NumAccels: 8})
	if _, err := SimulateBoxTransfers(flat, w, 10, 8); err == nil {
		t.Error("flat system accepted")
	}
	tb := mustBuild(t, arch.Config{Kind: arch.TrainBoxNoPool, NumAccels: 8})
	if _, err := SimulateBoxTransfers(tb, w, 0, 8); err == nil {
		t.Error("zero chunks accepted")
	}
}
