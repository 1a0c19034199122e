package pcie

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// PCIe address-range switching, the mechanism the
// paper's P2P optimization rides on (Section IV-C): "At the boot time,
// the system assigns a unique PCIe address ranges to each PCIe device
// and port of PCIe switches. Later, PCIe switches forward (rather than
// broadcast) packages based on their destination address and the address
// range of each port." AssignAddresses plays the boot-time enumeration;
// RouteByAddress plays a switch's forwarding decision; the tests below
// assert the two routing views (address-based and tree-based) agree
// everywhere.

// AddrRange is a half-open address window [Base, Base+Size).
type AddrRange struct {
	Base, Size uint64
}

// End returns the first address past the range.
func (r AddrRange) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls inside the range.
func (r AddrRange) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

// AddressMap is the result of enumeration: every node owns a range; a
// switch's range covers exactly its subtree (real bridges program their
// windows the same way, which is what makes prefix routing work).
type AddressMap struct {
	topo   *Topology
	ranges []AddrRange // indexed by NodeID
}

// deviceWindow is the per-endpoint BAR window size (enough for a device's
// doorbells and mapped memory; the value only needs to be consistent).
const deviceWindow uint64 = 1 << 24 // 16 MiB

// AssignAddresses performs boot-time enumeration: a depth-first walk
// that gives every endpoint a deviceWindow and every switch (and the
// root) the union of its children — contiguous because the walk
// allocates descendants consecutively.
func (t *Topology) AssignAddresses() *AddressMap {
	m := &AddressMap{topo: t, ranges: make([]AddrRange, len(t.nodes))}
	var next uint64 = deviceWindow // leave page zero unmapped, as real systems do
	var walk func(id NodeID) AddrRange
	walk = func(id NodeID) AddrRange {
		n := t.nodes[id]
		if len(n.children) == 0 && n.Kind != KindRootComplex && n.Kind != KindSwitch {
			r := AddrRange{Base: next, Size: deviceWindow}
			next += deviceWindow
			m.ranges[id] = r
			return r
		}
		start := next
		for _, c := range n.children {
			walk(c)
		}
		r := AddrRange{Base: start, Size: next - start}
		m.ranges[id] = r
		return r
	}
	walk(t.root)
	return m
}

// Range returns the node's assigned window.
func (m *AddressMap) Range(id NodeID) AddrRange { return m.ranges[id] }

// Owner returns the endpoint owning addr, or an error for unmapped
// addresses (including switch-only gaps, which cannot occur with this
// allocator but guard against corruption).
func (m *AddressMap) Owner(addr uint64) (NodeID, error) {
	// Walk down from the root like a switch cascade would.
	id := m.topo.root
	for {
		n := m.topo.nodes[id]
		if n.Kind != KindRootComplex && n.Kind != KindSwitch {
			if !m.ranges[id].Contains(addr) {
				return -1, fmt.Errorf("pcie: address %#x outside endpoint %q", addr, n.Name)
			}
			return id, nil
		}
		// Binary-search the children's bases (they are sorted by
		// construction).
		children := n.children
		idx := sort.Search(len(children), func(i int) bool {
			return m.ranges[children[i]].Base > addr
		}) - 1
		if idx < 0 || !m.ranges[children[idx]].Contains(addr) {
			return -1, fmt.Errorf("pcie: address %#x unmapped under %q", addr, n.Name)
		}
		id = children[idx]
	}
}

// RouteByAddress forwards a packet from src toward a destination
// *address* exactly the way the switch cascade does: at each hop, if the
// current node's subtree window contains the address, descend toward the
// owning child; otherwise forward upstream. It returns the traversed
// directional segments. Tests assert it equals Route(src, Owner(addr)).
func (m *AddressMap) RouteByAddress(src NodeID, addr uint64) ([]Segment, error) {
	if _, err := m.Owner(addr); err != nil {
		return nil, err
	}
	var segs []Segment
	cur := src
	for {
		n := m.topo.nodes[cur]
		switchLike := n.Kind == KindRootComplex || n.Kind == KindSwitch
		if m.ranges[cur].Contains(addr) {
			if !switchLike {
				return segs, nil // arrived at the owning endpoint
			}
			// Descend to the child window holding the address.
			children := n.children
			idx := sort.Search(len(children), func(i int) bool {
				return m.ranges[children[i]].Base > addr
			}) - 1
			if idx < 0 || !m.ranges[children[idx]].Contains(addr) {
				return nil, fmt.Errorf("pcie: switch %q has no window for %#x", n.Name, addr)
			}
			child := children[idx]
			segs = append(segs, Segment{Link: child, Direction: Down})
			cur = child
			continue
		}
		// Not in this subtree: forward upstream.
		if cur == m.topo.root {
			return nil, fmt.Errorf("pcie: address %#x escaped the root", addr)
		}
		segs = append(segs, Segment{Link: cur, Direction: Up})
		cur = n.Parent
	}
}

// randomFanTree builds a root with nSw switches, each holding nDev
// devices, for property tests.
func randomFanTree(nSw, nDev int) (*Topology, []NodeID) {
	b := NewBuilder(Gen3)
	rc := b.Root("rc")
	var devs []NodeID
	for s := 0; s < nSw; s++ {
		sw := b.Switch(rc, "sw")
		for d := 0; d < nDev; d++ {
			devs = append(devs, b.Device(sw, KindNNAccel, "dev"))
		}
	}
	return b.Build(), devs
}

func TestAssignAddressesDisjointAndNested(t *testing.T) {
	topo, ids := buildTestTree(t)
	m := topo.AssignAddresses()

	// Endpoint windows are pairwise disjoint.
	endpoints := []NodeID{ids["ssd0"], ids["acc0"], ids["acc1"], ids["fpga0"]}
	for i := range endpoints {
		for j := i + 1; j < len(endpoints); j++ {
			a, b := m.Range(endpoints[i]), m.Range(endpoints[j])
			if a.Base < b.End() && b.Base < a.End() {
				t.Fatalf("windows overlap: %+v and %+v", a, b)
			}
		}
	}
	// A switch's window covers each of its children.
	for _, pair := range [][2]string{{"sw0", "ssd0"}, {"sw0", "acc0"}, {"sw1", "sw2"}, {"sw2", "fpga0"}} {
		parent, child := m.Range(ids[pair[0]]), m.Range(ids[pair[1]])
		if child.Base < parent.Base || child.End() > parent.End() {
			t.Errorf("%s window %+v not inside %s window %+v", pair[1], child, pair[0], parent)
		}
	}
	// Page zero stays unmapped.
	if _, err := m.Owner(0); err == nil {
		t.Error("address 0 should be unmapped")
	}
}

func TestOwnerResolvesEveryEndpointAddress(t *testing.T) {
	topo, ids := buildTestTree(t)
	m := topo.AssignAddresses()
	for _, name := range []string{"ssd0", "acc0", "acc1", "fpga0"} {
		id := ids[name]
		r := m.Range(id)
		for _, addr := range []uint64{r.Base, r.Base + r.Size/2, r.End() - 1} {
			owner, err := m.Owner(addr)
			if err != nil {
				t.Fatalf("%s addr %#x: %v", name, addr, err)
			}
			if owner != id {
				t.Fatalf("%s addr %#x resolved to node %d", name, addr, owner)
			}
		}
	}
	if _, err := m.Owner(1 << 60); err == nil {
		t.Error("out-of-map address resolved")
	}
}

// TestRouteByAddressEqualsTreeRoute is the defining property: forwarding
// by destination address through switch windows produces exactly the
// tree path — which is why P2P traffic that stays under one switch never
// reaches the root complex.
func TestRouteByAddressEqualsTreeRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo, devs := randomFanTree(2+r.Intn(3), 2+r.Intn(4))
		m := topo.AssignAddresses()
		src := devs[r.Intn(len(devs))]
		dst := devs[r.Intn(len(devs))]
		addr := m.Range(dst).Base + uint64(r.Intn(int(m.Range(dst).Size)))
		got, err := m.RouteByAddress(src, addr)
		if err != nil {
			return false
		}
		want := topo.Route(src, dst)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestRouteByAddressLocalP2PSkipsRoot(t *testing.T) {
	topo, ids := buildTestTree(t)
	m := topo.AssignAddresses()
	// ssd0 → acc0 live under sw0: the address route must not include
	// any root-adjacent link.
	segs, err := m.RouteByAddress(ids["ssd0"], m.Range(ids["acc0"]).Base)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if topo.nodes[s.Link].Parent == topo.root {
			t.Fatalf("local P2P route crossed the root: %v", segs)
		}
	}
	if _, err := m.RouteByAddress(ids["ssd0"], 0); err == nil {
		t.Error("unmapped destination accepted")
	}
}

func TestRouteByAddressSelf(t *testing.T) {
	topo, ids := buildTestTree(t)
	m := topo.AssignAddresses()
	segs, err := m.RouteByAddress(ids["acc0"], m.Range(ids["acc0"]).Base)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Errorf("self route = %v, want empty", segs)
	}
}
