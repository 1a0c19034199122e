package core

import (
	"fmt"
	"math"
	"testing"

	"trainbox/internal/arch"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// The discrete-event replay of the data-preparation pipeline: the
// reference oracle TestDESMatchesAnalytical* holds Solve's preparation
// rate against.

// resource models a server with integer capacity (e.g. CPU cores, FPGA
// engines, SSD command slots). Requests acquire one or more units, hold
// them for a service time, and release. Waiters are served FIFO.
type resource struct {
	eng      *engine
	name     string
	capacity int
	inUse    int
	waiters  []*acquire

	// Utilization accounting.
	busyIntegral float64 // ∫ inUse dt
	lastChange   float64
	grants       uint64
	waitTotal    float64 // summed queueing delay
}

type acquire struct {
	units int
	grant func()
	at    float64
}

// newResource creates a resource with the given unit capacity.
func newResource(eng *engine, name string, capacity int) *resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: resource %q capacity must be positive", name))
	}
	return &resource{eng: eng, name: name, capacity: capacity, lastChange: eng.Now()}
}

// Acquire requests units; grant runs (possibly immediately, synchronously)
// once they are available. Requests exceeding total capacity panic.
func (r *resource) Acquire(units int, grant func()) {
	if units <= 0 || units > r.capacity {
		panic(fmt.Sprintf("core: resource %q acquire %d of %d", r.name, units, r.capacity))
	}
	req := &acquire{units: units, grant: grant, at: r.eng.Now()}
	r.waiters = append(r.waiters, req)
	r.dispatch()
}

// Release returns units to the pool and serves any eligible waiters.
func (r *resource) Release(units int) {
	if units <= 0 || units > r.inUse {
		panic(fmt.Sprintf("core: resource %q release %d with %d in use", r.name, units, r.inUse))
	}
	r.account()
	r.inUse -= units
	r.dispatch()
}

// Use acquires units, holds them for service seconds, then releases and
// invokes done (which may be nil). It is the common acquire/hold/release
// pattern.
func (r *resource) Use(units int, service float64, done func()) {
	r.Acquire(units, func() {
		r.eng.After(service, func() {
			r.Release(units)
			if done != nil {
				done()
			}
		})
	})
}

func (r *resource) dispatch() {
	for len(r.waiters) > 0 {
		head := r.waiters[0]
		if r.inUse+head.units > r.capacity {
			return // FIFO: do not let smaller later requests starve the head
		}
		r.waiters = r.waiters[1:]
		r.account()
		r.inUse += head.units
		r.grants++
		r.waitTotal += r.eng.Now() - head.at
		head.grant()
	}
}

func (r *resource) account() {
	now := r.eng.Now()
	r.busyIntegral += float64(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Utilization reports mean fraction of capacity in use since creation.
func (r *resource) Utilization() float64 {
	r.account()
	elapsed := r.lastChange
	if elapsed <= 0 {
		return 0
	}
	return r.busyIntegral / (elapsed * float64(r.capacity))
}

// MeanWait reports the average queueing delay per grant in seconds.
func (r *resource) MeanWait() float64 {
	if r.grants == 0 {
		return 0
	}
	return r.waitTotal / float64(r.grants)
}

// SimOptions controls the discrete-event validation run.
type SimOptions struct {
	// ChunkSamples is the granularity of one simulated work item.
	ChunkSamples int
	// Chunks is how many items to push through the pipeline.
	Chunks int
	// InFlight bounds concurrently active chunks (pipeline depth).
	InFlight int
}

// DefaultSimOptions returns a configuration that reaches steady state.
func DefaultSimOptions() SimOptions {
	return SimOptions{ChunkSamples: 64, Chunks: 2000, InFlight: 256}
}

// SimResult is the measured behaviour of the event-level replay.
type SimResult struct {
	// Throughput is the measured preparation rate.
	Throughput units.SamplesPerSec
	// Elapsed is the simulated makespan in seconds.
	Elapsed float64
	// Events is the number of simulation events executed.
	Events uint64
}

// SimulatePrep replays the data-preparation pipeline of a Baseline or
// clustered (TrainBox) system as a discrete-event simulation: chunks of
// samples flow through SSD read, host/FPGA compute, and the staging
// resources as queueing stations. Its purpose is validation — the
// measured steady-state rate must match the analytical solver's
// preparation rate (tests assert agreement within a few percent).
//
// The prep-pool is not replayed (use TrainBoxNoPool for clustered
// validation); B+Acc variants are validated through their shared
// constraint structure with Baseline.
func SimulatePrep(sys *arch.System, w workload.Workload, opts SimOptions) (SimResult, error) {
	if opts.ChunkSamples <= 0 || opts.Chunks <= 0 || opts.InFlight <= 0 {
		return SimResult{}, fmt.Errorf("core: invalid sim options %+v", opts)
	}
	switch sys.Config.Kind {
	case arch.Baseline:
		return simulateBaseline(sys, w, opts)
	case arch.TrainBoxNoPool, arch.TrainBox:
		return simulateClustered(sys, w, opts)
	default:
		return SimResult{}, fmt.Errorf("core: DES replay not implemented for %v", sys.Config.Kind)
	}
}

// stage is one queueing station: a resource plus the per-chunk service
// time and units it consumes.
type stage struct {
	res     *resource
	units   int
	service float64
}

// runPipeline pushes chunks through stages in order with bounded
// in-flight parallelism and returns the makespan.
func runPipeline(eng *engine, stages []stage, chunks, inFlight int) (float64, uint64, error) {
	launched, finished := 0, 0
	var finish float64

	var advance func(chunk, stageIdx int)
	var launch func()
	advance = func(chunk, stageIdx int) {
		if stageIdx == len(stages) {
			finished++
			finish = eng.Now()
			launch()
			return
		}
		st := stages[stageIdx]
		st.res.Use(st.units, st.service, func() { advance(chunk, stageIdx+1) })
	}
	launch = func() {
		for launched < chunks && launched-finished < inFlight {
			c := launched
			launched++
			advance(c, 0)
		}
	}
	launch()
	eng.SetStepLimit(uint64(chunks) * uint64(len(stages)+2) * 4)
	if err := eng.Run(); err != nil {
		return 0, 0, err
	}
	if finished != chunks {
		return 0, 0, fmt.Errorf("core: pipeline stalled at %d/%d chunks", finished, chunks)
	}
	return finish, eng.Steps(), nil
}

// simulateBaseline replays the host-staged CPU-prep pipeline: SSD read →
// host CPU (all prep ops) → DRAM staging → root-complex transfers.
func simulateBaseline(sys *arch.System, w workload.Workload, opts SimOptions) (SimResult, error) {
	eng := &engine{}
	n := float64(opts.ChunkSamples)
	host := sys.Config.Host

	ssd := newResource(eng, "ssd", len(sys.SSDs))
	cpu := newResource(eng, "cpu", host.Cores)
	mem := newResource(eng, "mem", 1)
	rc := newResource(eng, "rc", 1)

	stages := []stage{
		{ssd, 1, n * float64(w.Prep.StoredBytes) / float64(sys.Config.SSD.ReadBandwidth)},
		{cpu, 1, n * w.Prep.TotalCPUSeconds()},
		{mem, 1, n * float64(w.Prep.TotalMemoryBytes()) / float64(host.MemoryBandwidth)},
		{rc, 1, n * float64(w.Prep.StoredBytes+w.Prep.TensorBytes) / float64(sys.RCCap)},
	}
	elapsed, events, err := runPipeline(eng, stages, opts.Chunks, opts.InFlight)
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		Throughput: units.SamplesPerSec(float64(opts.Chunks) * n / elapsed),
		Elapsed:    elapsed,
		Events:     events,
	}, nil
}

// simulateClustered replays one train box's local pipeline (SSD → FPGA →
// accelerator links) and scales by the box count: clustering makes boxes
// independent, which is exactly the property being validated.
func simulateClustered(sys *arch.System, w workload.Workload, opts SimOptions) (SimResult, error) {
	if len(sys.Boxes) == 0 {
		return SimResult{}, fmt.Errorf("core: clustered system has no boxes")
	}
	eng := &engine{}
	n := float64(opts.ChunkSamples)
	box := sys.Boxes[0]
	perFPGA := float64(perDevicePrepRate(sys.Config.Prep, w))

	ssd := newResource(eng, "box-ssd", len(box.SSDs))
	fpgas := newResource(eng, "box-fpga", len(box.FPGAs))
	// Each FPGA's PCIe egress carries the prepared tensors.
	egress := newResource(eng, "fpga-egress", len(box.FPGAs))
	egressBW := float64(sys.Topo.LinkOf(box.FPGAs[0]).Bandwidth)

	stages := []stage{
		{ssd, 1, n * float64(w.Prep.StoredBytes) / float64(sys.Config.SSD.ReadBandwidth)},
		{fpgas, 1, n / perFPGA},
		{egress, 1, n * float64(w.Prep.TensorBytes) / egressBW},
	}
	elapsed, events, err := runPipeline(eng, stages, opts.Chunks, opts.InFlight)
	if err != nil {
		return SimResult{}, err
	}
	boxRate := float64(opts.Chunks) * n / elapsed
	return SimResult{
		Throughput: units.SamplesPerSec(boxRate * float64(len(sys.Boxes))),
		Elapsed:    elapsed,
		Events:     events,
	}, nil
}

// TestDESMatchesAnalyticalBaseline cross-validates the event-level replay
// against the closed-form solver for the baseline architecture.
func TestDESMatchesAnalyticalBaseline(t *testing.T) {
	for _, name := range []string{"Resnet-50", "TF-SR"} {
		w, _ := workload.ByName(name)
		sys := mustBuild(t, arch.Config{Kind: arch.Baseline, NumAccels: 256})
		analytic, err := Solve(sys, w)
		if err != nil {
			t.Fatal(err)
		}
		des, err := SimulatePrep(sys, w, DefaultSimOptions())
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(des.Throughput)-float64(analytic.PrepRate)) / float64(analytic.PrepRate)
		if rel > 0.05 {
			t.Errorf("%s: DES %v vs analytic prep %v (%.1f%% apart)",
				name, des.Throughput, analytic.PrepRate, rel*100)
		}
	}
}

// TestDESMatchesAnalyticalTrainBox validates the clustered replay.
func TestDESMatchesAnalyticalTrainBox(t *testing.T) {
	for _, name := range []string{"Inception-v4", "TF-AA"} {
		w, _ := workload.ByName(name)
		sys := mustBuild(t, arch.Config{Kind: arch.TrainBoxNoPool, NumAccels: 64})
		analytic, err := Solve(sys, w)
		if err != nil {
			t.Fatal(err)
		}
		des, err := SimulatePrep(sys, w, DefaultSimOptions())
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(des.Throughput)-float64(analytic.PrepRate)) / float64(analytic.PrepRate)
		if rel > 0.05 {
			t.Errorf("%s: DES %v vs analytic prep %v (%.1f%% apart)",
				name, des.Throughput, analytic.PrepRate, rel*100)
		}
	}
}

func TestDESOptionValidation(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	sys := mustBuild(t, arch.Config{Kind: arch.Baseline, NumAccels: 8})
	if _, err := SimulatePrep(sys, w, SimOptions{}); err == nil {
		t.Error("zero options accepted")
	}
	flat := mustBuild(t, arch.Config{Kind: arch.BaselineAcc, NumAccels: 8})
	if _, err := SimulatePrep(flat, w, DefaultSimOptions()); err == nil {
		t.Error("unsupported kind accepted")
	}
}

func TestResourceSerializesAtCapacity(t *testing.T) {
	e := &engine{}
	r := newResource(e, "cpu", 2)
	var completions []float64
	for i := 0; i < 4; i++ {
		r.Use(1, 10, func() { completions = append(completions, e.Now()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run at [0,10), the next two at [10,20).
	want := []float64{10, 10, 20, 20}
	if len(completions) != 4 {
		t.Fatalf("completions = %v", completions)
	}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("completion[%d] = %v, want %v", i, completions[i], w)
		}
	}
}

func TestResourceFIFOHeadOfLineBlocking(t *testing.T) {
	// A 2-unit request at the head must not be bypassed by a later 1-unit
	// request even when one unit is free.
	e := &engine{}
	r := newResource(e, "link", 2)
	var order []string
	r.Use(1, 5, nil) // holds one unit until t=5
	r.Acquire(2, func() {
		order = append(order, "big")
		e.After(1, func() { r.Release(2) })
	})
	r.Acquire(1, func() { order = append(order, "small") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("grant order = %v, want [big small]", order)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := &engine{}
	r := newResource(e, "cpu", 4)
	r.Use(4, 10, nil)
	e.At(20, func() {}) // extend simulated time to 20
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Busy 4/4 for 10 s of 20 s -> 50%.
	if got := r.Utilization(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
}

func TestResourceMeanWait(t *testing.T) {
	e := &engine{}
	r := newResource(e, "one", 1)
	r.Use(1, 10, nil)
	r.Use(1, 10, nil) // waits 10
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.MeanWait(); math.Abs(got-5) > 1e-9 {
		t.Errorf("MeanWait = %v, want 5", got)
	}
}

func TestResourceInvalidOps(t *testing.T) {
	e := &engine{}
	r := newResource(e, "x", 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("over-capacity acquire", func() { r.Acquire(3, func() {}) })
	mustPanic("zero acquire", func() { r.Acquire(0, func() {}) })
	mustPanic("over-release", func() { r.Release(1) })
	mustPanic("zero capacity", func() { newResource(e, "y", 0) })
}
