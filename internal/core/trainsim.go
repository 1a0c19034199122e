package core

import (
	"fmt"

	"trainbox/internal/arch"
	"trainbox/internal/report"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// TrainingSimResult is the measured behaviour of the overlapped training
// replay (Figure 1 with next-batch prefetching as a two-stage pipeline).
type TrainingSimResult struct {
	// Throughput is the measured end-to-end training rate.
	Throughput units.SamplesPerSec
	// Steps is the number of completed training steps.
	Steps int
	// Elapsed is the simulated makespan in seconds.
	Elapsed float64
	// AccelIdle is the fraction of time the accelerators waited for data
	// — nonzero exactly when preparation is the bottleneck.
	AccelIdle float64
	// PrepIdle is the fraction of time preparation waited for a free
	// buffer — nonzero exactly when compute is the bottleneck.
	PrepIdle float64
	// Timeline records each stage activity interval for visualization
	// (report.Gantt); lanes are "prep" and "compute".
	Timeline []report.Span
}

// maxReplaySteps bounds SimulateTraining: the replay's timeline and
// event queue cost about 250 B per step.
const maxReplaySteps = 100000

// SimulateTraining replays the overlapped training pipeline for the
// given number of steps: data preparation for batch i+1 runs while the
// accelerators compute and synchronize batch i, with double buffering
// between the stages. Stage times come from the analytical model; the
// replay validates the *composition* — that end-to-end throughput equals
// min(prep rate, compute rate) and that the slack appears on the
// correct side — which is the paper's Figure 1/Section II-B argument.
func SimulateTraining(sys *arch.System, w workload.Workload, steps int) (TrainingSimResult, error) {
	if steps <= 0 || steps > maxReplaySteps {
		return TrainingSimResult{}, fmt.Errorf("core: need 1 to %d steps, got %d", maxReplaySteps, steps)
	}
	res, err := Solve(sys, w)
	if err != nil {
		return TrainingSimResult{}, err
	}
	globalBatch := float64(len(sys.Accels) * w.BatchSize)
	prepTime := globalBatch / float64(res.PrepRate)
	cluster, err := newAccelCluster(len(sys.Accels))
	if err != nil {
		return TrainingSimResult{}, err
	}
	computeTime := cluster.StepTime(w, w.BatchSize)

	eng := &engine{}
	// Double buffering: at most 2 prepared-but-unconsumed batches.
	const buffers = 2
	ready := 0 // prepared batches waiting
	preparing := false
	computing := false
	done := 0
	var finish float64
	var accelIdleStart = 0.0
	var accelIdleTotal, prepIdleTotal float64
	var timeline []report.Span
	var prepIdleStart = 0.0
	accelWaiting, prepWaiting := true, false

	var maybeStartPrep, maybeStartCompute func()
	maybeStartPrep = func() {
		// Batches already produced or in production: consumed + being
		// consumed + buffered + being prepared. Never prepare more than
		// the run needs.
		produced := done + ready
		if computing {
			produced++
		}
		if preparing || ready >= buffers || produced >= steps {
			if !preparing && ready >= buffers && !prepWaiting {
				prepWaiting = true
				prepIdleStart = eng.Now()
			}
			return
		}
		if prepWaiting {
			prepIdleTotal += eng.Now() - prepIdleStart
			prepWaiting = false
		}
		preparing = true
		prepStart := eng.Now()
		eng.After(prepTime, func() {
			preparing = false
			ready++
			timeline = append(timeline, report.Span{Lane: "prep", Start: prepStart, End: eng.Now()})
			maybeStartPrep()
			maybeStartCompute()
		})
	}
	maybeStartCompute = func() {
		if computing || done >= steps {
			return
		}
		if ready == 0 {
			if !accelWaiting {
				accelWaiting = true
				accelIdleStart = eng.Now()
			}
			return
		}
		if accelWaiting {
			accelIdleTotal += eng.Now() - accelIdleStart
			accelWaiting = false
		}
		ready--
		computing = true
		computeStart := eng.Now()
		maybeStartPrep() // a buffer just freed
		eng.After(computeTime, func() {
			computing = false
			done++
			finish = eng.Now()
			timeline = append(timeline, report.Span{Lane: "compute", Start: computeStart, End: eng.Now()})
			maybeStartCompute()
		})
	}
	maybeStartPrep()
	maybeStartCompute()
	eng.SetStepLimit(uint64(steps)*8 + 64)
	if err := eng.Run(); err != nil {
		return TrainingSimResult{}, err
	}
	if done != steps {
		return TrainingSimResult{}, fmt.Errorf("core: training replay completed %d/%d steps", done, steps)
	}
	out := TrainingSimResult{
		Steps:      steps,
		Elapsed:    finish,
		Throughput: units.SamplesPerSec(float64(steps) * globalBatch / finish),
		Timeline:   timeline,
	}
	if finish > 0 {
		out.AccelIdle = accelIdleTotal / finish
		out.PrepIdle = prepIdleTotal / finish
	}
	return out, nil
}
