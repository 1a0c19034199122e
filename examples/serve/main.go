// serve demonstrates the multi-tenant training front-end end to end,
// in process: a server over a pooled training backend, three tenants
// with different priorities and appetites, one of them greedy enough to
// trip admission control. The walkthrough shows the full lifecycle —
// submit, fair-share dispatch, a priority preemption for a run slot, a
// cancellation, an overload shed with its Retry-After hint — and closes
// by printing the per-tenant metric namespaces the server maintains.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"trainbox/internal/metrics"
	"trainbox/internal/serve"
)

func main() {
	reg := metrics.NewRegistry()
	runner, pool, err := serve.NewTrainBackend(2, 32, 11, reg)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.NewServer(
		serve.WithRunner(runner),
		serve.WithPool(pool),
		serve.WithMetrics(reg),
		serve.WithMaxRunning(2),
		serve.WithTenantQuota(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Three tenants: vip runs at priority 5, alice and bob at the
	// default. bob over-submits past his quota to show a shed.
	spec := serve.JobSpec{Items: 16, Epochs: 8, RequiredRate: 8000}
	submit := func(tenant string, prio int) string {
		s := spec
		s.Tenant, s.Priority = tenant, prio
		inf, err := srv.Submit(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %-5s → %s (priority %d, state %s)\n", tenant, inf.ID, prio, inf.State)
		return inf.ID
	}
	// alice and bob take both run slots. vip then finds every slot
	// taken and outranks them, so it preempts the younger run: that job
	// parks at its next epoch boundary, requeues, and resumes from its
	// checkpoint once a slot frees. Devices are not the server's to
	// give — the prep-pool moves them to vip's higher tier.
	watch := []string{submit("alice", 0), submit("bob", 0)}
	for _, id := range watch {
		await(srv, id, func(st serve.State) bool { return st != serve.StateQueued })
	}
	watch = append(watch, submit("vip", 5), submit("bob", 0))

	// bob's third live job crosses his quota: the server sheds it with
	// a Retry-After hint instead of queueing it.
	over := spec
	over.Tenant = "bob"
	if _, err := srv.Submit(over); err != nil {
		fmt.Printf("overload: %v\n", err)
	}

	// Cancel bob's second job while it queues or runs.
	if err := srv.Cancel(watch[3]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cancelled %s\n", watch[3])

	for _, id := range watch {
		inf := await(srv, id, serve.State.Terminal)
		if inf.Outcome != nil {
			fmt.Printf("%-5s %-6s %-10s preempted %d×, loss %.3f, %d samples in %.0fms\n",
				id, inf.Tenant, inf.State, inf.Preemptions, inf.Outcome.FinalLoss, inf.Outcome.Samples, inf.Outcome.ElapsedMs)
		} else {
			fmt.Printf("%-5s %-6s %-10s preempted %d× (%s)\n", id, inf.Tenant, inf.State, inf.Preemptions, inf.Error)
		}
	}

	// The per-tenant namespaces the front-end maintains.
	snap := reg.Snapshot()
	var names []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "serve.tenant.") && snap.Counters[name] > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Println("tenant metrics:")
	for _, name := range names {
		fmt.Printf("  %-36s %d\n", name, snap.Counters[name])
	}
}

// await polls a job until its state satisfies reached.
func await(srv *serve.Server, id string, reached func(serve.State) bool) serve.Info {
	for {
		inf, err := srv.Status(id)
		if err != nil {
			log.Fatal(err)
		}
		if reached(inf.State) {
			return inf
		}
		time.Sleep(time.Millisecond)
	}
}
