package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"trainbox/internal/pcie"
	"trainbox/internal/units"
)

// The fluid-flow PCIe network: transfers share directional link
// bandwidth max-min fairly. SimulateBoxTransfers replays a train box's
// DMAs through it, the reference oracle for Solve's pcie-link
// constraint.

// flow is a continuous data stream between two endpoints. Weight scales
// the flow's fair share (a weight-2 flow behaves like two unit flows).
type flow struct {
	Src, Dst pcie.NodeID
	Weight   float64
}

// maxMinFair computes the weighted max-min fair allocation of the flows
// over topo's directional link capacities using progressive
// filling: repeatedly find the link whose remaining capacity divided by
// the unfrozen weight crossing it is smallest, freeze those flows at that
// fair level, and continue.
//
// The returned allocation satisfies, and tests assert, the two defining
// invariants: no directional link is oversubscribed, and every flow is
// bottlenecked (it crosses some saturated link on which no other flow has
// a higher per-weight rate).
func maxMinFair(topo *pcie.Topology, flows []flow) []units.BytesPerSec {
	n := len(flows)
	rates := make([]units.BytesPerSec, n)
	if n == 0 {
		return rates
	}

	routes := make([][]pcie.Segment, n)
	for i, f := range flows {
		if f.Weight <= 0 {
			panic(fmt.Sprintf("core: flow %d has non-positive weight %v", i, f.Weight))
		}
		routes[i] = topo.Route(f.Src, f.Dst)
		if len(routes[i]) == 0 {
			// Degenerate same-node flow: unconstrained by the fabric.
			rates[i] = units.BytesPerSec(math.Inf(1))
		}
	}

	remaining := map[pcie.Segment]float64{}
	crossing := map[pcie.Segment][]int{}
	for i, segs := range routes {
		for _, s := range segs {
			if _, ok := remaining[s]; !ok {
				remaining[s] = float64(topo.LinkOf(s.Link).Bandwidth)
			}
			crossing[s] = append(crossing[s], i)
		}
	}

	frozen := make([]bool, n)
	level := make([]float64, n) // frozen per-weight rate
	active := 0
	for i := range flows {
		if len(routes[i]) > 0 {
			active++
		} else {
			frozen[i] = true
		}
	}

	for active > 0 {
		// Find the most constraining link: min over links of
		// remaining / sum of unfrozen weights crossing it.
		best := math.Inf(1)
		for k, rem := range remaining {
			var w float64
			for _, fi := range crossing[k] {
				if !frozen[fi] {
					w += flows[fi].Weight
				}
			}
			if w == 0 {
				continue
			}
			if fair := rem / w; fair < best {
				best = fair
			}
		}
		if math.IsInf(best, 1) {
			break // all remaining flows cross only unconstrained links
		}
		// Freeze every unfrozen flow crossing a link saturated at this
		// level. Use a tolerance so float noise cannot stall progress.
		progress := false
		for k, rem := range remaining {
			var w float64
			for _, fi := range crossing[k] {
				if !frozen[fi] {
					w += flows[fi].Weight
				}
			}
			if w == 0 {
				continue
			}
			if rem/w <= best*(1+1e-12) {
				for _, fi := range crossing[k] {
					if !frozen[fi] {
						frozen[fi] = true
						level[fi] = best
						active--
						progress = true
					}
				}
			}
		}
		if !progress {
			panic("core: max-min fair solver stalled")
		}
		// Deduct frozen flows' consumption from every link they cross.
		for k := range remaining {
			var used float64
			for _, fi := range crossing[k] {
				if frozen[fi] && !math.IsInf(level[fi], 1) {
					used += level[fi] * flows[fi].Weight
				}
			}
			rem := float64(topo.LinkOf(k.Link).Bandwidth) - used
			if rem < 0 {
				rem = 0
			}
			remaining[k] = rem
		}
	}

	for i := range flows {
		if len(routes[i]) == 0 {
			continue // keep +Inf
		}
		rates[i] = units.BytesPerSec(level[i] * flows[i].Weight)
	}
	return rates
}

// network is a flow-level discrete-event simulation of transfers over a
// Topology. Active transfers share directional link bandwidth max-min
// fairly; every transfer start or completion recomputes the allocation
// and reschedules completion events. This is the standard fluid-flow
// abstraction: accurate for throughput questions (which is all training
// cares about, per Section VI-A of the paper) without simulating packets.
type network struct {
	eng  *engine
	topo *pcie.Topology

	active []*transfer

	// BytesMoved accumulates completed-transfer volume for reporting.
	BytesMoved float64
	// Completed counts finished transfers.
	Completed int
}

type transfer struct {
	src, dst   pcie.NodeID
	total      float64 // original bytes
	remaining  float64 // bytes
	rate       float64 // bytes/sec under current allocation
	updated    float64 // sim time of last remaining-bytes update
	done       func()
	completion *event
}

// newNetwork creates a transfer simulator over topo driven by eng.
func newNetwork(eng *engine, topo *pcie.Topology) *network {
	return &network{eng: eng, topo: topo}
}

// Start begins a transfer of the given volume from src to dst; done (may
// be nil) runs at completion time. Zero-byte or same-node transfers
// complete after zero simulated delay (still asynchronously, preserving
// event ordering).
func (n *network) Start(src, dst pcie.NodeID, bytes units.Bytes, done func()) {
	if bytes <= 0 || src == dst {
		n.eng.After(0, func() {
			n.Completed++
			if done != nil {
				done()
			}
		})
		return
	}
	tr := &transfer{src: src, dst: dst, total: float64(bytes), remaining: float64(bytes), updated: n.eng.Now(), done: done}
	n.active = append(n.active, tr)
	n.reallocate()
}

// Active reports the number of in-flight transfers.
func (n *network) Active() int { return len(n.active) }

// reallocate advances progress of every active transfer, recomputes fair
// rates, and reschedules completions.
func (n *network) reallocate() {
	now := n.eng.Now()
	for _, tr := range n.active {
		tr.remaining -= tr.rate * (now - tr.updated)
		if tr.remaining < 0 {
			tr.remaining = 0
		}
		tr.updated = now
		if tr.completion != nil {
			n.eng.Cancel(tr.completion)
			tr.completion = nil
		}
	}

	flows := make([]flow, len(n.active))
	for i, tr := range n.active {
		flows[i] = flow{Src: tr.src, Dst: tr.dst, Weight: 1}
	}
	rates := maxMinFair(n.topo, flows)

	for i, tr := range n.active {
		tr.rate = float64(rates[i])
		var dt float64
		if math.IsInf(tr.rate, 1) {
			dt = 0
		} else if tr.rate <= 0 {
			// No capacity at all — leave the transfer stalled; a later
			// reallocation may revive it. (Cannot happen on Builder
			// topologies, which require positive bandwidth.)
			continue
		} else {
			dt = tr.remaining / tr.rate
		}
		tr.completion = n.eng.After(dt, n.completer(tr))
	}
}

// completer returns the completion action for tr.
func (n *network) completer(tr *transfer) func() {
	return func() {
		// Remove tr from the active set.
		for i, a := range n.active {
			if a == tr {
				n.active = append(n.active[:i], n.active[i+1:]...)
				break
			}
		}
		n.BytesMoved += tr.total
		n.Completed++
		tr.completion = nil
		n.reallocate()
		if tr.done != nil {
			tr.done()
		}
	}
}

// buildTestTree builds:
//
//	rc ── sw0 ── ssd0
//	 │      └── acc0
//	 └─ sw1 ── acc1
//	        └── sw2 ── fpga0
func buildTestTree(t *testing.T) (*pcie.Topology, map[string]pcie.NodeID) {
	t.Helper()
	b := pcie.NewBuilder(pcie.Gen3)
	ids := map[string]pcie.NodeID{}
	ids["rc"] = b.Root("rc")
	ids["sw0"] = b.Switch(ids["rc"], "sw0")
	ids["sw1"] = b.Switch(ids["rc"], "sw1")
	ids["ssd0"] = b.Device(ids["sw0"], pcie.KindSSD, "ssd0")
	ids["acc0"] = b.Device(ids["sw0"], pcie.KindNNAccel, "acc0")
	ids["acc1"] = b.Device(ids["sw1"], pcie.KindNNAccel, "acc1")
	ids["sw2"] = b.Switch(ids["sw1"], "sw2")
	ids["fpga0"] = b.Device(ids["sw2"], pcie.KindPrepAccel, "fpga0")
	return b.Build(), ids
}

func TestMaxMinFairSingleFlowGetsFullLink(t *testing.T) {
	topo, ids := buildTestTree(t)
	fr := maxMinFair(topo, []flow{{Src: ids["ssd0"], Dst: ids["acc0"], Weight: 1}})
	if got := fr[0]; got != pcie.Gen3.LinkBandwidth() {
		t.Errorf("rate = %v, want %v", got, pcie.Gen3.LinkBandwidth())
	}
}

func TestMaxMinFairTwoFlowsShareCommonLink(t *testing.T) {
	topo, ids := buildTestTree(t)
	// Both flows exit via ssd0's uplink.
	flows := []flow{
		{Src: ids["ssd0"], Dst: ids["acc0"], Weight: 1},
		{Src: ids["ssd0"], Dst: ids["acc1"], Weight: 1},
	}
	fr := maxMinFair(topo, flows)
	half := pcie.Gen3.LinkBandwidth() / 2
	for i, r := range fr {
		if math.Abs(float64(r-half)) > 1 {
			t.Errorf("rate[%d] = %v, want %v", i, r, half)
		}
	}
}

func TestMaxMinFairWeightedShares(t *testing.T) {
	topo, ids := buildTestTree(t)
	flows := []flow{
		{Src: ids["ssd0"], Dst: ids["acc0"], Weight: 3},
		{Src: ids["ssd0"], Dst: ids["acc1"], Weight: 1},
	}
	fr := maxMinFair(topo, flows)
	bw := float64(pcie.Gen3.LinkBandwidth())
	if math.Abs(float64(fr[0])-0.75*bw) > 1 {
		t.Errorf("weighted rate[0] = %v, want %v", fr[0], 0.75*bw)
	}
	if math.Abs(float64(fr[1])-0.25*bw) > 1 {
		t.Errorf("weighted rate[1] = %v, want %v", fr[1], 0.25*bw)
	}
}

func TestMaxMinFairDisjointFlowsDoNotInterfere(t *testing.T) {
	topo, ids := buildTestTree(t)
	flows := []flow{
		{Src: ids["ssd0"], Dst: ids["acc0"], Weight: 1},  // inside sw0
		{Src: ids["fpga0"], Dst: ids["acc1"], Weight: 1}, // inside sw1 subtree
	}
	fr := maxMinFair(topo, flows)
	for i, r := range fr {
		if r != pcie.Gen3.LinkBandwidth() {
			t.Errorf("disjoint rate[%d] = %v, want full link", i, r)
		}
	}
}

func TestMaxMinFairBottleneckReleasesOtherLinks(t *testing.T) {
	// Flow A is squeezed on ssd's narrow x4 link; flow B sharing a wide
	// link with A should pick up the slack (max-min, not proportional).
	b := pcie.NewBuilder(pcie.Gen3)
	rc := b.Root("rc")
	sw := b.Switch(rc, "sw")
	ssd := b.DeviceBW(sw, pcie.KindSSD, "ssd", 4*units.GBps)
	accA := b.Device(rc, pcie.KindNNAccel, "accA")
	fpga := b.Device(sw, pcie.KindPrepAccel, "fpga")
	topo := b.Build()

	flows := []flow{
		{Src: ssd, Dst: accA, Weight: 1},  // limited to 4 GB/s by ssd uplink
		{Src: fpga, Dst: accA, Weight: 1}, // shares sw uplink and accA downlink
	}
	fr := maxMinFair(topo, flows)
	if math.Abs(float64(fr[0])-4e9) > 1 {
		t.Errorf("narrow flow = %v, want 4 GB/s", fr[0])
	}
	if math.Abs(float64(fr[1])-12e9) > 1 {
		t.Errorf("wide flow = %v, want 12 GB/s", fr[1])
	}
}

func TestMaxMinFairSameNodeFlowUnconstrained(t *testing.T) {
	topo, ids := buildTestTree(t)
	fr := maxMinFair(topo, []flow{{Src: ids["acc0"], Dst: ids["acc0"], Weight: 1}})
	if !math.IsInf(float64(fr[0]), 1) {
		t.Errorf("same-node flow rate = %v, want +Inf", fr[0])
	}
}

func TestMaxMinFairEmptyFlows(t *testing.T) {
	topo, _ := buildTestTree(t)
	fr := maxMinFair(topo, nil)
	if len(fr) != 0 {
		t.Errorf("rates = %v, want empty", fr)
	}
}

func TestMaxMinFairNonPositiveWeightPanics(t *testing.T) {
	topo, ids := buildTestTree(t)
	defer func() {
		if recover() == nil {
			t.Error("non-positive weight did not panic")
		}
	}()
	maxMinFair(topo, []flow{{Src: ids["ssd0"], Dst: ids["acc0"], Weight: 0}})
}

// randomFanTree builds a root with nSw switches, each holding nDev
// devices, for property tests.
func randomFanTree(nSw, nDev int) (*pcie.Topology, []pcie.NodeID) {
	b := pcie.NewBuilder(pcie.Gen3)
	rc := b.Root("rc")
	var devs []pcie.NodeID
	for s := 0; s < nSw; s++ {
		sw := b.Switch(rc, "sw")
		for d := 0; d < nDev; d++ {
			devs = append(devs, b.Device(sw, pcie.KindNNAccel, "dev"))
		}
	}
	return b.Build(), devs
}

// TestMaxMinFairPropertyInvariants asserts, on random flow sets, the two
// defining properties of a feasible max-min fair allocation:
//  1. no directional link carries more than its capacity, and
//  2. every flow crosses at least one saturated link (it cannot be
//     unilaterally increased), i.e. the allocation is Pareto-maximal.
func TestMaxMinFairPropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo, devs := randomFanTree(2+r.Intn(3), 2+r.Intn(3))
		nf := 1 + r.Intn(8)
		flows := make([]flow, nf)
		for i := range flows {
			src := devs[r.Intn(len(devs))]
			dst := devs[r.Intn(len(devs))]
			for dst == src {
				dst = devs[r.Intn(len(devs))]
			}
			flows[i] = flow{Src: src, Dst: dst, Weight: 0.5 + r.Float64()*3}
		}
		fr := maxMinFair(topo, flows)

		// Accumulate per-directional-link usage.
		type key struct {
			link pcie.NodeID
			dir  pcie.Direction
		}
		usage := map[key]float64{}
		for i, f := range flows {
			for _, s := range topo.Route(f.Src, f.Dst) {
				usage[key{s.Link, s.Direction}] += float64(fr[i])
			}
		}
		for k, u := range usage {
			cap := float64(topo.LinkOf(k.link).Bandwidth)
			if u > cap*(1+1e-9) {
				t.Logf("seed %d: link %v/%v oversubscribed: %v > %v", seed, k.link, k.dir, u, cap)
				return false
			}
		}
		// Pareto: every flow crosses a saturated link.
		for i, f := range flows {
			saturated := false
			for _, s := range topo.Route(f.Src, f.Dst) {
				cap := float64(topo.LinkOf(s.Link).Bandwidth)
				if usage[key{s.Link, s.Direction}] >= cap*(1-1e-9) {
					saturated = true
					break
				}
			}
			if !saturated {
				t.Logf("seed %d: flow %d (rate %v) crosses no saturated link", seed, i, fr[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestNetworkSingleTransferTime(t *testing.T) {
	topo, ids := buildTestTree(t)
	eng := &engine{}
	net := newNetwork(eng, topo)
	var done float64
	net.Start(ids["ssd0"], ids["acc0"], 16*units.GB, func() { done = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := float64(16*units.GB) / float64(pcie.Gen3.LinkBandwidth())
	if math.Abs(done-want) > 1e-9 {
		t.Errorf("completion at %v, want %v", done, want)
	}
	if net.Completed != 1 {
		t.Errorf("Completed = %d", net.Completed)
	}
}

func TestNetworkSharingHalvesRateThenRecovers(t *testing.T) {
	// Two equal transfers share ssd0's uplink; each should take exactly
	// 1.5× a solo transfer under fluid fair sharing: they run at half
	// rate until both finish simultaneously (equal sizes).
	topo, ids := buildTestTree(t)
	eng := &engine{}
	net := newNetwork(eng, topo)
	var t1, t2 float64
	vol := 16 * units.GB
	net.Start(ids["ssd0"], ids["acc0"], vol, func() { t1 = eng.Now() })
	net.Start(ids["ssd0"], ids["acc1"], vol, func() { t2 = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	solo := float64(vol) / float64(pcie.Gen3.LinkBandwidth())
	if math.Abs(t1-2*solo) > 1e-9 || math.Abs(t2-2*solo) > 1e-9 {
		t.Errorf("completions %v,%v, want both at %v", t1, t2, 2*solo)
	}
}

func TestNetworkLateArrivalSlowsExisting(t *testing.T) {
	// Transfer A runs alone for half its volume, then B arrives on the
	// same bottleneck. A's remaining half runs at half rate.
	topo, ids := buildTestTree(t)
	eng := &engine{}
	net := newNetwork(eng, topo)
	bw := float64(pcie.Gen3.LinkBandwidth())
	vol := units.Bytes(bw) // 1 second solo
	var ta float64
	net.Start(ids["ssd0"], ids["acc0"], vol, func() { ta = eng.Now() })
	eng.At(0.5, func() {
		net.Start(ids["ssd0"], ids["acc1"], vol, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// A: 0.5 s at full rate (half volume) + 0.5 volume at half rate = 1 s more.
	if math.Abs(ta-1.5) > 1e-9 {
		t.Errorf("A completed at %v, want 1.5", ta)
	}
}

func TestNetworkDisjointTransfersRunInParallel(t *testing.T) {
	topo, ids := buildTestTree(t)
	eng := &engine{}
	net := newNetwork(eng, topo)
	vol := 16 * units.GB
	var times []float64
	net.Start(ids["ssd0"], ids["acc0"], vol, func() { times = append(times, eng.Now()) })
	net.Start(ids["fpga0"], ids["acc1"], vol, func() { times = append(times, eng.Now()) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	solo := float64(vol) / float64(pcie.Gen3.LinkBandwidth())
	for i, tt := range times {
		if math.Abs(tt-solo) > 1e-9 {
			t.Errorf("transfer %d completed at %v, want %v", i, tt, solo)
		}
	}
}

func TestNetworkZeroBytesCompletesImmediately(t *testing.T) {
	topo, ids := buildTestTree(t)
	eng := &engine{}
	net := newNetwork(eng, topo)
	fired := false
	net.Start(ids["ssd0"], ids["acc0"], 0, func() { fired = true })
	if fired {
		t.Error("done ran synchronously")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || eng.Now() != 0 {
		t.Errorf("fired=%v now=%v", fired, eng.Now())
	}
}

func TestNetworkManyTransfersConserveBytes(t *testing.T) {
	topo, ids := buildTestTree(t)
	eng := &engine{}
	net := newNetwork(eng, topo)
	var total units.Bytes
	srcs := []pcie.NodeID{ids["ssd0"], ids["fpga0"], ids["acc0"]}
	dsts := []pcie.NodeID{ids["acc1"], ids["acc0"], ids["fpga0"]}
	for i := 0; i < 30; i++ {
		vol := units.Bytes(float64(i+1) * 1e8)
		total += vol
		src, dst := srcs[i%3], dsts[i%3]
		delay := float64(i) * 0.01
		eng.At(delay, func() { net.Start(src, dst, vol, nil) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Completed != 30 {
		t.Errorf("Completed = %d, want 30", net.Completed)
	}
	if math.Abs(net.BytesMoved-float64(total)) > 1 {
		t.Errorf("BytesMoved = %v, want %v", net.BytesMoved, float64(total))
	}
	if net.Active() != 0 {
		t.Errorf("Active = %d after drain", net.Active())
	}
}

// TestNetworkThroughputMatchesAnalyticalBottleneck cross-checks the DES
// against the closed-form bottleneck rate for a steady pipeline: samples
// flowing ssd0→acc1 (crossing the root) at saturation should deliver
// exactly one link's bandwidth.
func TestNetworkThroughputMatchesAnalyticalBottleneck(t *testing.T) {
	topo, ids := buildTestTree(t)
	eng := &engine{}
	net := newNetwork(eng, topo)
	const n = 64
	per := units.Bytes(1e9)
	finished := 0
	var last float64
	var launch func()
	inFlight := 0
	launched := 0
	launch = func() {
		for inFlight < 4 && launched < n { // keep the pipe full
			launched++
			inFlight++
			net.Start(ids["ssd0"], ids["acc1"], per, func() {
				inFlight--
				finished++
				last = eng.Now()
				launch()
			})
		}
	}
	launch()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("finished %d of %d", finished, n)
	}
	gotRate := float64(n) * float64(per) / last
	wantRate := float64(pcie.Gen3.LinkBandwidth())
	if math.Abs(gotRate-wantRate)/wantRate > 0.01 {
		t.Errorf("steady rate = %v, want %v (±1%%)", gotRate, wantRate)
	}
}

// TestNetworkConvoyEffect documents a real queueing phenomenon the
// fluid model reproduces: equal-size two-leg chains released
// simultaneously phase-lock (every chain in leg 1 together, then leg 2
// together), halving effective utilization versus staggered release.
// SimulateBoxTransfers staggers its initial window for exactly this
// reason.
func TestNetworkConvoyEffect(t *testing.T) {
	build := func() (*pcie.Topology, pcie.NodeID, pcie.NodeID, pcie.NodeID) {
		b := pcie.NewBuilder(pcie.Gen3)
		rc := b.Root("rc")
		src := b.DeviceBW(rc, pcie.KindSSD, "src", 4*units.GBps)
		mid := b.DeviceBW(rc, pcie.KindPrepAccel, "mid", 4*units.GBps)
		dst := b.DeviceBW(rc, pcie.KindNNAccel, "dst", 4*units.GBps)
		return b.Build(), src, mid, dst
	}
	run := func(stagger bool) float64 {
		topo, src, mid, dst := build()
		eng := &engine{}
		net := newNetwork(eng, topo)
		const chains, inFlight = 200, 8
		vol := units.Bytes(4e8) // 0.1 s solo per leg
		launched, finished := 0, 0
		var finish float64
		var launch func()
		launch = func() {
			for launched < chains && launched-finished < inFlight {
				c := launched
				launched++
				start := func() {
					net.Start(src, mid, vol, func() {
						net.Start(mid, dst, vol, func() {
							finished++
							finish = eng.Now()
							launch()
						})
					})
				}
				if stagger && c < inFlight {
					eng.At(float64(c)*0.05, start)
				} else {
					start()
				}
			}
		}
		launch()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(chains) * float64(vol) / finish
	}
	convoy := run(false)
	staggered := run(true)
	// Both legs use disjoint 4 GB/s links; perfect pipelining reaches
	// ~4 GB/s, the convoy reaches ~2 GB/s.
	if staggered < 3.6e9 {
		t.Errorf("staggered rate = %v, want ≈4 GB/s", staggered)
	}
	if convoy > 2.4e9 {
		t.Errorf("convoy rate = %v, want ≈2 GB/s (the phase-lock)", convoy)
	}
}
