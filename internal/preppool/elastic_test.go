package preppool

import (
	"context"
	"sync"
	"testing"

	"trainbox/internal/metrics"
	"trainbox/internal/units"
)

// TestPreemptionRevokesWithinOneEpochBoundary: a higher-tier job
// arriving in a fully-leased pool must see the lower-tier job's leases
// revoked at the victim's next epoch boundary and acquire them at its
// own first boundary — the grant-revocation path of the lease migrator.
func TestPreemptionRevokesWithinOneEpochBoundary(t *testing.T) {
	handlers, store, cfg := fixture(t, 2)
	reg := metrics.NewRegistry()
	pool, err := NewPool(handlers, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := pool.Register(spec("victim", cfg, store, 3, 16000, 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()
	ctx := context.Background()
	if _, err := victim.PrepareEpoch(ctx, keys, 0); err != nil {
		t.Fatal(err)
	}
	if victim.Leases() != 2 {
		t.Fatalf("victim leases = %d, want the whole pool", victim.Leases())
	}

	vipSpec := spec("vip", cfg, store, 7, 16000, 0)
	vipSpec.Priority = 1
	vip, err := pool.Register(vipSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Victim's next boundary: the owed rebalance targets it at zero and
	// its settle revokes both leases (the content stays bit-identical —
	// the epoch just runs on the host path).
	out, err := victim.PrepareEpoch(ctx, keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, oracle(t, cfg, store, 3, keys, 1))
	if victim.Leases() != 0 {
		t.Errorf("victim leases = %d one boundary after the vip arrived, want 0", victim.Leases())
	}

	// Vip's first boundary: it acquires the revoked devices.
	out, err = vip.PrepareEpoch(ctx, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, oracle(t, cfg, store, 7, keys, 0))
	if vip.Leases() != 2 {
		t.Errorf("vip leases = %d at its first boundary, want 2 (revoked grants acquired)", vip.Leases())
	}
	if pool.Migrations() < 2 {
		t.Errorf("migrations = %d, want ≥ 2 (both devices changed owner)", pool.Migrations())
	}
}

// synthetic overlap source for controller tests.
type overlapVar struct {
	mu sync.Mutex
	v  float64
}

func (o *overlapVar) set(v float64) { o.mu.Lock(); o.v = v; o.mu.Unlock() }
func (o *overlapVar) get() float64  { o.mu.Lock(); defer o.mu.Unlock(); return o.v }

// TestAutoscaleValidation: broken controller configs are rejected.
func TestAutoscaleValidation(t *testing.T) {
	handlers, store, cfg := fixture(t, 1)
	pool, err := NewPool(handlers)
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("scaled", cfg, store, 3, 8000, 0))
	if err != nil {
		t.Fatal(err)
	}
	good := AutoscaleConfig{
		Overlap: func() float64 { return 1 },
		Min:     4000, Max: 32000, Grow: 2, Shrink: 0.5,
		LowOverlap: 0.5, HighOverlap: 1.1,
	}
	bads := []func(*AutoscaleConfig){
		func(c *AutoscaleConfig) { c.Overlap = nil },
		func(c *AutoscaleConfig) { c.Min = -1 },
		func(c *AutoscaleConfig) { c.Max = c.Min },
		func(c *AutoscaleConfig) { c.Grow = 1 },
		func(c *AutoscaleConfig) { c.Shrink = 1 },
		func(c *AutoscaleConfig) { c.Shrink = 0 },
		func(c *AutoscaleConfig) { c.HighOverlap = c.LowOverlap },
		func(c *AutoscaleConfig) { c.CooldownEpochs = -1 },
	}
	for i, mutate := range bads {
		bad := good
		mutate(&bad)
		if err := job.EnableAutoscale(bad); err == nil {
			t.Errorf("bad autoscale config %d accepted", i)
		}
	}
	if err := job.EnableAutoscale(good); err != nil {
		t.Fatalf("valid autoscale config rejected: %v", err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if err := job.EnableAutoscale(good); err == nil {
		t.Error("autoscale enabled on a closed job")
	}
}

// TestAutoscaleGrowsAndShrinksWithHysteresis walks the controller
// through its whole envelope: first boundary skipped (no signal yet),
// growth under prep-bound overlap until the Max clamp — with the grown
// demand actually pulling pool leases — then shrink under low overlap
// to the Min clamp, with the dead band holding demand steady in
// between.
func TestAutoscaleGrowsAndShrinksWithHysteresis(t *testing.T) {
	handlers, store, cfg := fixture(t, 2)
	reg := metrics.NewRegistry()
	pool, err := NewPool(handlers, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("scaled", cfg, store, 3, 8000, 0))
	if err != nil {
		t.Fatal(err)
	}
	ov := &overlapVar{}
	if err := job.EnableAutoscale(AutoscaleConfig{
		Overlap: ov.get,
		Min:     4000, Max: 32000, Grow: 2, Shrink: 0.5,
		LowOverlap: 0.5, HighOverlap: 1.1,
	}); err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()
	ctx := context.Background()
	epoch := 0
	tick := func() {
		t.Helper()
		if _, err := job.PrepareEpoch(ctx, keys, epoch); err != nil {
			t.Fatal(err)
		}
		epoch++
	}
	required := func() units.SamplesPerSec {
		t.Helper()
		return pool.Stats()[0].RequiredRate
	}

	// Boundary 1: always skipped — the overlap gauge carries no signal
	// before a step epoch has completed.
	ov.set(5)
	tick()
	if got := required(); got != 8000 {
		t.Fatalf("required = %v after the skip boundary, want 8000", got)
	}
	// Prep-bound: overlap above the band grows demand ×2 per boundary.
	tick()
	if got := required(); got != 16000 {
		t.Fatalf("required = %v after one growth step, want 16000", got)
	}
	// The grown demand pulls a second lease at the next boundary.
	tick()
	if got := job.Leases(); got != 2 {
		t.Errorf("leases = %d after growth, want 2", got)
	}
	if got := required(); got != 32000 {
		t.Fatalf("required = %v, want 32000 (second growth, at Max)", got)
	}
	// At the Max clamp: no further change, no spurious counter bumps.
	tick()
	if got := required(); got != 32000 {
		t.Fatalf("required = %v, want Max hold at 32000", got)
	}
	ups := reg.Snapshot().Counters["preppool.job.scaled.autoscale_ups"]
	if ups != 2 {
		t.Errorf("autoscale_ups = %d, want 2", ups)
	}

	// Dead band: inside [Low, High] nothing moves.
	ov.set(0.8)
	tick()
	if got := required(); got != 32000 {
		t.Fatalf("required = %v inside the dead band, want 32000", got)
	}

	// Compute-bound: overlap below the band halves demand down to Min.
	ov.set(0.1)
	tick() // 16000
	tick() // 8000
	tick() // 4000 (Min)
	tick() // Min hold
	if got := required(); got != 4000 {
		t.Fatalf("required = %v after shrink, want Min 4000", got)
	}
	if got := job.Leases(); got != 1 {
		t.Errorf("leases = %d after shrink, want 1", got)
	}
	snap := reg.Snapshot()
	if downs := snap.Counters["preppool.job.scaled.autoscale_downs"]; downs != 3 {
		t.Errorf("autoscale_downs = %d, want 3", downs)
	}
	if got := snap.Gauges["preppool.job.scaled.autoscale_overlap"]; got != 0.1 {
		t.Errorf("autoscale_overlap gauge = %v, want 0.1", got)
	}
}

// TestAutoscaleCooldownHoldsBetweenMoves: with CooldownEpochs 2, two
// boundaries must pass after an adjustment before the next one.
func TestAutoscaleCooldownHoldsBetweenMoves(t *testing.T) {
	handlers, store, cfg := fixture(t, 2)
	pool, err := NewPool(handlers)
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(spec("cooled", cfg, store, 3, 8000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.EnableAutoscale(AutoscaleConfig{
		Overlap: func() float64 { return 5 },
		Min:     4000, Max: 64000, Grow: 2, Shrink: 0.5,
		LowOverlap: 0.5, HighOverlap: 1.1, CooldownEpochs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()
	ctx := context.Background()
	wantByEpoch := []units.SamplesPerSec{
		8000,  // boundary 1: initial skip
		16000, // boundary 2: grow, cooldown starts
		16000, // boundary 3: cooling
		16000, // boundary 4: cooling
		32000, // boundary 5: grow again
	}
	for epoch, want := range wantByEpoch {
		if _, err := job.PrepareEpoch(ctx, keys, epoch); err != nil {
			t.Fatal(err)
		}
		if got := pool.Stats()[0].RequiredRate; got != want {
			t.Fatalf("boundary %d: required = %v, want %v", epoch+1, got, want)
		}
	}
}
