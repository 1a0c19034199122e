package loadtest

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"trainbox/internal/invariant"
	"trainbox/internal/serve"
	"trainbox/internal/train"
)

// runnerFunc adapts a function to serve.Runner.
type runnerFunc func(ctx context.Context, id string, spec serve.JobSpec) (serve.Outcome, error)

func (f runnerFunc) Run(ctx context.Context, id string, spec serve.JobSpec, _ serve.Elastic) (serve.Outcome, error) {
	return f(ctx, id, spec)
}

// fastRunner finishes in about a millisecond but still honours
// cancellation, so hundreds of tenants churn through quickly.
func fastRunner() serve.Runner {
	return runnerFunc(func(ctx context.Context, id string, spec serve.JobSpec) (serve.Outcome, error) {
		select {
		case <-time.After(time.Millisecond):
			return serve.Outcome{FinalLoss: 1, Samples: spec.Items * spec.Epochs}, nil
		case <-ctx.Done():
			return serve.Outcome{}, ctx.Err()
		}
	})
}

// TestHundredsOfTenantsFairAndConserving is the headline invariant run:
// ≥ 200 concurrent tenants against a deliberately narrow server. Every
// submission must be admitted or shed (never lost), every admitted job
// must terminate, no job may fail, shedding must engage, admission must
// stay fair across tenants, and shutdown must reclaim every goroutine.
func TestHundredsOfTenantsFairAndConserving(t *testing.T) {
	invariant.NoLeak(t)
	s, err := serve.NewServer(
		serve.WithRunner(fastRunner()),
		serve.WithMaxRunning(8),
		serve.WithQueueLimit(32),
		serve.WithTenantQuota(2),
	)
	if err != nil {
		t.Fatal(err)
	}

	rep := Run(context.Background(), s, Config{
		Tenants:       200,
		JobsPerTenant: 4,
		CancelEvery:   3,
		Retries:       -1, // retry until admitted: turns fairness into a no-starvation check
		Timeout:       90 * time.Second,
	})
	t.Log(rep.String())

	// 800 wanted jobs against a 32-deep queue must shed heavily, yet
	// with retries every tenant must land all 4 jobs — overload may slow
	// tenants down but never starve one out.
	if v := rep.Verify(Invariants{WantShed: true, MinFairness: 1}); len(v) > 0 {
		for _, violation := range v {
			t.Error(violation)
		}
	}
	if rep.Admitted != 800 {
		t.Errorf("admitted %d, want all 800 (200 tenants × 4 jobs)", rep.Admitted)
	}
	if rep.Shed == 0 || rep.Submitted != rep.Admitted+rep.Shed {
		t.Errorf("submitted %d, admitted %d, shed %d: overload accounting broken", rep.Submitted, rep.Admitted, rep.Shed)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPClientAgainstLiveServer runs the same generator through the
// HTTP client, which also exercises 429 → ShedError conversion and the
// Retry-After requirement.
func TestHTTPClientAgainstLiveServer(t *testing.T) {
	s, err := serve.NewServer(
		serve.WithRunner(fastRunner()),
		serve.WithMaxRunning(4),
		serve.WithQueueLimit(8),
		serve.WithTenantQuota(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep := Run(context.Background(), HTTP{BaseURL: ts.URL}, Config{
		Tenants:       24,
		JobsPerTenant: 3,
		Retries:       -1,
		Timeout:       60 * time.Second,
	})
	t.Log(rep.String())
	if v := rep.Verify(Invariants{MinFairness: 1}); len(v) > 0 {
		for _, violation := range v {
			t.Error(violation)
		}
	}
	if rep.Admitted == 0 {
		t.Error("no job admitted over HTTP")
	}
}

// TestVerifyCatchesViolations: the checker itself must flag cooked
// reports, or CI would pass on garbage.
func TestVerifyCatchesViolations(t *testing.T) {
	bad := Report{
		Tenants:   []TenantReport{{Tenant: "a", Admitted: 10}, {Tenant: "b", Admitted: 0}},
		Submitted: 12, Admitted: 10, Shed: 1, // conservation broken
		Done: 8, Failed: 1, // one unaccounted, one failed
	}
	v := bad.Verify(Invariants{WantShed: true, MinFairness: 0.5})
	if len(v) < 4 {
		t.Fatalf("got %d violations %v, want conservation + terminal + failed + fairness", len(v), v)
	}
	clean := Report{
		Tenants:   []TenantReport{{Tenant: "a", Admitted: 2}, {Tenant: "b", Admitted: 2}},
		Submitted: 5, Admitted: 4, Shed: 1, Done: 4,
	}
	if v := clean.Verify(Invariants{WantShed: true, MinFairness: 0.5}); len(v) != 0 {
		t.Fatalf("clean report flagged: %v", v)
	}
}

// TestRunAgainstRealTrainingBackend drives a small load through the
// full stack: pooled devices, preppool registration, real train loops.
func TestRunAgainstRealTrainingBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("real training backend is slow under -short")
	}
	runner, pool, err := serve.NewTrainBackend(2, 8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewServer(
		serve.WithRunner(runner),
		serve.WithPool(pool),
		serve.WithMaxRunning(2),
		serve.WithTenantQuota(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rep := Run(context.Background(), s, Config{
		Tenants:       4,
		JobsPerTenant: 2,
		Spec:          serve.JobSpec{Items: 8, Epochs: 1, RequiredRate: 8000},
		Timeout:       90 * time.Second,
	})
	t.Log(rep.String())
	if v := rep.Verify(Invariants{MinFairness: 1}); len(v) > 0 {
		for _, violation := range v {
			t.Error(violation)
		}
	}
	if rep.Done != 8 {
		t.Errorf("done = %d, want all 8 real training jobs to finish", rep.Done)
	}
}

// elasticFastRunner is a millisecond-scale elastic Runner: each run is
// a series of 1ms "epochs" that honours park requests at epoch
// boundaries and banks trivially small checkpoints, so churn runs have
// a real window to suspend jobs mid-flight.
type elasticFastRunner struct{ epochs int }

func (r elasticFastRunner) Run(ctx context.Context, id string, spec serve.JobSpec, e serve.Elastic) (serve.Outcome, error) {
	start := 0
	if e.Restore != nil {
		start = e.Restore.Epoch + 1
	}
	for epoch := start; epoch < r.epochs; epoch++ {
		if e.Suspender != nil && e.Suspender.Requested() {
			return serve.Outcome{}, fmt.Errorf("run %s parked at epoch %d: %w", id, epoch, train.ErrSuspended)
		}
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return serve.Outcome{}, ctx.Err()
		}
		if e.Checkpoint != nil && epoch < r.epochs-1 {
			e.Checkpoint(train.Checkpoint{Epoch: epoch, Seed: spec.Seed})
		}
	}
	return serve.Outcome{FinalLoss: 1, Samples: spec.Items * spec.Epochs}, nil
}

// TestChurnSuspendResumeConserves is the elastic-lifecycle stressor:
// half the tenants suspend and resume every job they admit, mid-burst,
// and the run must still drain cleanly — every admitted job terminal,
// nothing failed, and the no-lost-jobs equation intact.
func TestChurnSuspendResumeConserves(t *testing.T) {
	s, err := serve.NewServer(
		serve.WithRunner(elasticFastRunner{epochs: 12}),
		serve.WithMaxRunning(4),
		serve.WithQueueLimit(64),
		serve.WithTenantQuota(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rep := Run(context.Background(), s, Config{
		Tenants:       12,
		JobsPerTenant: 3,
		ChurnFraction: 0.5,
		Retries:       -1,
		Timeout:       60 * time.Second,
	})
	t.Log(rep.String())

	if v := rep.Verify(Invariants{MinFairness: 1}); len(v) > 0 {
		for _, violation := range v {
			t.Error(violation)
		}
	}
	if rep.Suspends == 0 {
		t.Error("churn run never suspended a job")
	}
	if rep.Resumes == 0 {
		t.Error("churn run never resumed a job")
	}
	if rep.Done != 36 {
		t.Errorf("done = %d, want all 36 churned jobs to finish after resume", rep.Done)
	}
}
