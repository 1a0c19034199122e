package serve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/metrics"
	"trainbox/internal/train"
	"trainbox/internal/units"
)

// The serve path table: the real Server and TrainRunner over runner
// placement × cache × interruption. Every job must reproduce a train.Run
// host reference at the runner's shape — its Outcome, and every
// checkpoint it banks, weights and velocity.
const (
	serveItems  = 8
	serveEpochs = 4
	serveHold   = 1 // boundary an interrupted job is held at
)

// serveJobs are a cell's jobs. Alice claims both devices; bob claims
// none, so on the pool bob's epochs reach the cache through the pool
// job's host half; carol (preempt cells only) outranks alice.
var serveJobs = []JobSpec{
	{Tenant: "alice", Items: serveItems, Epochs: serveEpochs, Replicas: 2, Seed: 5, RequiredRate: 16000},
	{Tenant: "bob", Items: serveItems, Epochs: serveEpochs, Replicas: 2, Seed: 6},
	{Tenant: "carol", Items: serveItems, Epochs: serveEpochs, Replicas: 2, Seed: 7, RequiredRate: 16000, Priority: 1},
}

// tapRunner is the real TrainRunner with its Elastic harness tapped: it
// records every checkpoint a job banks and, when hold is set, keeps alice's first run waiting in the sink at boundary
// serveHold until release — between epochs, where the step stage reads
// a park request.
type tapRunner struct {
	*TrainRunner
	hold          bool
	held, release chan struct{}

	mu  sync.Mutex
	cps map[string][]train.Checkpoint
}

func (r *tapRunner) Run(ctx context.Context, id string, spec JobSpec, e Elastic) (Outcome, error) {
	first, bank := e.Restore == nil, e.Checkpoint
	e.Checkpoint = func(cp train.Checkpoint) {
		bank(cp)
		r.mu.Lock()
		r.cps[spec.Tenant] = append(r.cps[spec.Tenant], cp)
		r.mu.Unlock()
		if r.hold && first && spec.Tenant == "alice" && cp.Epoch == serveHold {
			close(r.held)
			<-r.release
		}
	}
	return r.TrainRunner.Run(ctx, id, spec, e)
}

// TestServePathsAgree runs the 12 cells: host and pool × uncached and
// ample × none, suspend and preempt.
func TestServePathsAgree(t *testing.T) {
	hostRunner, _, err := NewTrainBackend(0, serveItems, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each tenant's reference: train.Run on the host at the runner's
	// shape, with its checkpoint at every non-final boundary.
	refs := map[string]train.Result{}
	refCPs := map[string][]train.Checkpoint{}
	for _, sp := range serveJobs {
		side := runnerCrop / 4
		cfg := train.Config{Replicas: sp.Replicas, Widths: []int{side * side, 8, runnerClasses}, Epochs: sp.Epochs,
			LearningRate: runnerLR, PrefetchDepth: runnerPrefetch, Seed: sp.Seed}
		exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: hostRunner.imgCfg}, runnerWorkers, sp.Seed)
		refs[sp.Tenant], err = train.Run(context.Background(), cfg, train.WithDataset(exec, hostRunner.store, hostRunner.keys),
			train.WithFeature(train.BlockFeature), train.WithCheckpointSink(func(cp train.Checkpoint) {
				refCPs[sp.Tenant] = append(refCPs[sp.Tenant], cp)
			}))
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, devices := range []int{0, 2} {
		for _, cache := range []string{"uncached", "ample"} {
			for _, intr := range []string{"none", "suspend", "preempt"} {
				place := "host"
				if devices > 0 {
					place = "pool"
				}
				t.Run(fmt.Sprintf("%s-%s-%s", place, cache, intr), func(t *testing.T) {
					runServeCell(t, devices, cache == "ample", intr, refs, refCPs)
				})
			}
		}
	}
}

func runServeCell(t *testing.T, devices int, cached bool, intr string, refs map[string]train.Result, refCPs map[string][]train.Checkpoint) {
	reg := metrics.NewRegistry()
	onPool := devices > 0
	runner, pool, err := NewTrainBackend(devices, serveItems, 3, reg)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		runner.EnableCache(64*units.MB, reg)
	}
	tap := &tapRunner{TrainRunner: runner, hold: intr != "none", held: make(chan struct{}), release: make(chan struct{}),
		cps: map[string][]train.Checkpoint{}}
	// One run slot: carol, submitted while alice holds it and the queue
	// is empty, must preempt alice.
	opts := []Option{WithMetrics(reg), WithMaxRunning(1)}
	if onPool {
		opts = append(opts, WithPool(pool))
	}
	s := newTestServer(t, tap, opts...)
	// Cleanups run last-in first-out, so this frees a held alice before
	// the server's Close waits for her run.
	t.Cleanup(sync.OnceFunc(func() { close(tap.release) }))
	jobs := serveJobs
	if intr != "preempt" {
		jobs = jobs[:2]
	}
	ids := map[string]string{}
	submit := func(sp JobSpec) {
		inf, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("submit %s: %v", sp.Tenant, err)
		}
		ids[sp.Tenant] = inf.ID
	}
	submit(jobs[0])
	if intr != "preempt" {
		submit(jobs[1])
	}
	if intr != "none" {
		select {
		case <-tap.held:
		case <-time.After(time.Until(testDeadline(t))):
			t.Fatal("alice never reached the held boundary")
		}
		if intr == "suspend" {
			err = s.Suspend(ids["alice"])
		} else {
			submit(jobs[2])
			submit(jobs[1])
		}
		tap.release <- struct{}{}
		if err != nil {
			t.Fatal(err)
		}
		if intr == "suspend" {
			if inf := waitState(t, s, ids["alice"], StateSuspended); inf.CheckpointEpochs != serveHold+1 {
				t.Errorf("alice parked on %d checkpoint epochs, want %d", inf.CheckpointEpochs, serveHold+1)
			}
			if err := s.Resume(ids["alice"]); err != nil {
				t.Fatal(err)
			}
		}
	}

	done := map[string]Info{}
	for _, sp := range jobs {
		done[sp.Tenant] = waitState(t, s, ids[sp.Tenant], StateDone)
	}
	snap := reg.Snapshot()
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, sp := range jobs {
		inf, ref, cps := done[sp.Tenant], refs[sp.Tenant], tap.cps[sp.Tenant]
		// An interrupted alice resumes from the held boundary, and her
		// Outcome counts only the epochs after it.
		from, preemptions := -1, 0
		if sp.Tenant == "alice" && intr != "none" {
			from = serveHold
		}
		if sp.Tenant == "alice" && intr == "preempt" {
			preemptions = 1
		}
		want := Outcome{FinalLoss: ref.FinalLoss()}
		for _, st := range ref.Steps {
			if st.Epoch > from {
				want.Samples += st.Samples
				want.Steps++
			}
		}
		got := *inf.Outcome
		got.ElapsedMs = 0
		if got != want || inf.Preemptions != preemptions || snap.Counters["serve.tenant."+sp.Tenant+".done"] != 1 {
			t.Errorf("%s: done with %+v after %d preemptions, want once with %+v after %d", sp.Tenant, got, inf.Preemptions, want, preemptions)
		}
		// Each non-final boundary is banked once: a resumed run starts
		// after its checkpoint, whose content the next one proves.
		if len(cps) != serveEpochs-1 {
			t.Errorf("%s banked %d checkpoints, want %d", sp.Tenant, len(cps), serveEpochs-1)
		}
		for _, cp := range cps {
			if !reflect.DeepEqual(cp, refCPs[sp.Tenant][cp.Epoch]) {
				t.Errorf("%s's checkpoint at epoch %d differs from the reference's", sp.Tenant, cp.Epoch)
			}
		}
		// A job claiming the pool holds devices at every boundary, so
		// it prepares nothing in-box; bob never leases one.
		job := "preppool.job." + ids[sp.Tenant] + "."
		if p, h := snap.Counters[job+"pooled_samples"], snap.Counters[job+"inbox_samples"]; onPool && ((p > 0) == (h > 0) || (p > 0) != (sp.RequiredRate > 0)) {
			t.Errorf("%s prepared %d samples on the pool and %d in-box", sp.Tenant, p, h)
		}
	}
	wantPreempts := int64(0)
	if intr == "preempt" {
		wantPreempts = 1
	}
	if got := snap.Counters["serve.server.preemptions"]; got != wantPreempts {
		t.Errorf("server counted %d preemptions, want %d", got, wantPreempts)
	}
	if onPool && pool.FreeDevices() != 2 {
		t.Errorf("%d devices free after every job closed, want 2", pool.FreeDevices())
	}
	// The tenants share one decode per key, whichever path reaches the
	// cache: on the pool only bob's host half does.
	if m, h := snap.Counters["dscache.serve.misses"], snap.Counters["dscache.serve.hits"]; cached && (m != serveItems || h == 0) {
		t.Errorf("cache saw %d misses and %d hits, want %d misses and some hits", m, h, serveItems)
	}
}
