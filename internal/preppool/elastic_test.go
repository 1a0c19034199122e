package preppool

import (
	"context"
	"testing"

	"trainbox/internal/metrics"
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
	if leases(victim) != 2 {
		t.Fatalf("victim leases = %d, want the whole pool", leases(victim))
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
	if leases(victim) != 0 {
		t.Errorf("victim leases = %d one boundary after the vip arrived, want 0", leases(victim))
	}

	// Vip's first boundary: it acquires the revoked devices.
	out, err = vip.PrepareEpoch(ctx, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, out, oracle(t, cfg, store, 7, keys, 0))
	if leases(vip) != 2 {
		t.Errorf("vip leases = %d at its first boundary, want 2 (revoked grants acquired)", leases(vip))
	}
	if pool.Migrations() < 2 {
		t.Errorf("migrations = %d, want ≥ 2 (both devices changed owner)", pool.Migrations())
	}
}
