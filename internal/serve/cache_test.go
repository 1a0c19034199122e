package serve

import (
	"testing"

	"trainbox/internal/metrics"
	"trainbox/internal/units"
)

// TestServeSharedCacheAcrossTenants: two tenants training on the shared
// corpus behind one cache tier decode each key once between them, their
// outcomes are byte-identical to uncached runs of the same specs, and
// the cache's telemetry lands in the server's registry.
func TestServeSharedCacheAcrossTenants(t *testing.T) {
	const items = 8
	specA := JobSpec{Tenant: "alice", Items: items, Epochs: 3, Replicas: 2, Seed: 5}
	specB := JobSpec{Tenant: "bob", Items: items, Epochs: 3, Replicas: 2, Seed: 6}

	// Uncached oracle outcomes, one fresh runner per job so nothing is
	// shared between them.
	oracles := map[string]Outcome{}
	for name, spec := range map[string]JobSpec{"a": specA, "b": specB} {
		r, _, err := NewTrainBackend(0, items, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, r, WithMaxRunning(1))
		inf, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitState(t, s, inf.ID, StateDone)
		if done.Outcome == nil {
			t.Fatalf("oracle %s: %+v", name, done)
		}
		oracles[name] = *done.Outcome
	}

	reg := metrics.NewRegistry()
	runner, _, err := NewTrainBackend(0, items, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := runner.EnableCache(64*units.MB, reg)
	s := newTestServer(t, runner, WithMetrics(reg), WithMaxRunning(2))
	infA, err := s.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	infB, err := s.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	doneA := waitState(t, s, infA.ID, StateDone)
	doneB := waitState(t, s, infB.ID, StateDone)
	if doneA.Outcome == nil || doneB.Outcome == nil {
		t.Fatalf("outcomes: %+v / %+v", doneA, doneB)
	}
	if doneA.Outcome.FinalLoss != oracles["a"].FinalLoss || doneA.Outcome.Samples != oracles["a"].Samples {
		t.Fatalf("tenant alice diverged from uncached oracle: %+v vs %+v", doneA.Outcome, oracles["a"])
	}
	if doneB.Outcome.FinalLoss != oracles["b"].FinalLoss || doneB.Outcome.Samples != oracles["b"].Samples {
		t.Fatalf("tenant bob diverged from uncached oracle: %+v vs %+v", doneB.Outcome, oracles["b"])
	}

	st := c.Stats()
	if st.Misses != items {
		t.Fatalf("decodes = %d, want %d: both tenants' epochs should share one decode per key", st.Misses, items)
	}
	if st.Hits == 0 {
		t.Fatal("cache recorded no hits across 2 tenants × 3 epochs")
	}
	snap := reg.Snapshot()
	if snap.Counters["dscache.serve.misses"] != items {
		t.Fatalf("dscache.serve.misses = %d, want %d", snap.Counters["dscache.serve.misses"], items)
	}
}

// TestServeCacheWithPoolBindsHostPath: with a device pool in front, the
// cache still serves the host half of each split epoch and the job
// completes with pooled samples flowing.
func TestServeCacheWithPoolBindsHostPath(t *testing.T) {
	reg := metrics.NewRegistry()
	runner, pool, err := NewTrainBackend(2, 8, 3, reg)
	if err != nil {
		t.Fatal(err)
	}
	c := runner.EnableCache(64*units.MB, reg)
	s := newTestServer(t, runner, WithMetrics(reg), WithPool(pool), WithMaxRunning(1))
	// Zero required rate: the pool grants no devices, so every epoch
	// runs on the job's host executor — which EnableCache must have
	// rebound through the shared tier even on the pool path.
	inf, err := s.Submit(JobSpec{Tenant: "carol", Items: 8, Epochs: 2, Replicas: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, inf.ID, StateDone)
	if done.Outcome == nil || done.Outcome.Samples == 0 {
		t.Fatalf("outcome = %+v", done.Outcome)
	}
	if st := c.Stats(); st.Misses == 0 {
		t.Fatal("cache never saw the host half of the split epochs")
	}
}
