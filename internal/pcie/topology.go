// Package pcie models a PCIe interconnect as a tree of a root complex,
// switches, and endpoint devices, the structure described in Sections II-C
// and V-D of the TrainBox paper.
//
// The model captures what matters for the paper's analysis:
//
//   - full-duplex links with per-direction bandwidth (Gen3/Gen4 x16),
//   - address-based switching: a packet traverses only the links on the
//     unique tree path between source and destination, so peer-to-peer
//     traffic that stays under one switch never touches the root complex,
//   - per-link accounting: LinkLoad charges a sample's bytes to every
//     directional link on its route, which is how internal/core finds the
//     busiest link and the root-complex load.
//
// Topologies are built once and are immutable afterwards; routing queries
// and link accounting are read-only and safe for concurrent use.
package pcie

import (
	"fmt"

	"trainbox/internal/units"
)

// Generation selects the PCIe generation, which sets per-link bandwidth.
type Generation int

// Supported PCIe generations.
const (
	Gen3 Generation = 3
	Gen4 Generation = 4
)

// LinkBandwidth returns the usable single-direction bandwidth of an x16
// link for the generation. Values follow the paper's working numbers
// (Gen3 x16 ≈ 16 GB/s; Gen4 doubles it).
func (g Generation) LinkBandwidth() units.BytesPerSec {
	switch g {
	case Gen4:
		return 32 * units.GBps
	default:
		return 16 * units.GBps
	}
}

// NodeKind classifies tree nodes.
type NodeKind int

// Node kinds. The root complex and switches forward packets; the rest are
// endpoint devices.
const (
	KindRootComplex NodeKind = iota
	KindSwitch
	KindSSD
	KindNNAccel   // neural network accelerator (TPU/GPU-class)
	KindPrepAccel // data preparation accelerator (FPGA)
	KindNIC       // Ethernet interface (prep-pool uplink)
	KindHost      // host CPU/DRAM endpoint attached at the root complex
)

func (k NodeKind) String() string {
	switch k {
	case KindRootComplex:
		return "root-complex"
	case KindSwitch:
		return "switch"
	case KindSSD:
		return "ssd"
	case KindNNAccel:
		return "nn-accel"
	case KindPrepAccel:
		return "prep-accel"
	case KindNIC:
		return "nic"
	case KindHost:
		return "host"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NodeID identifies a node within one Topology.
type NodeID int

// Direction distinguishes the two halves of a full-duplex link.
type Direction int

// Link directions relative to the tree: Up flows toward the root complex,
// Down flows away from it.
const (
	Up Direction = iota
	Down
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Node is one vertex of the PCIe tree.
type Node struct {
	ID     NodeID
	Kind   NodeKind
	Name   string
	Parent NodeID // -1 for the root complex
	depth  int

	children []NodeID
}

// Link is the full-duplex connection between a node and its parent. It is
// identified by the child node's ID.
type Link struct {
	Child NodeID
	// Bandwidth per direction; both directions have the same capacity.
	Bandwidth units.BytesPerSec
}

// Segment is one directional link hop on a route.
type Segment struct {
	Link      NodeID // child end of the link
	Direction Direction
}

// String renders a segment like "up(sw0)" for debugging.
func (s Segment) String() string { return fmt.Sprintf("%s(%d)", s.Direction, int(s.Link)) }

// Topology is an immutable PCIe tree. Build one with NewBuilder.
type Topology struct {
	nodes []Node
	links []Link // links[i] connects nodes[i] to its parent; root entry unused
	root  NodeID
}

// Builder constructs a Topology.
type Builder struct {
	topo    *Topology
	defBW   units.BytesPerSec
	built   bool
	hasRoot bool
}

// NewBuilder returns a Builder whose links default to the generation's
// x16 bandwidth.
func NewBuilder(gen Generation) *Builder {
	return &Builder{
		topo:  &Topology{},
		defBW: gen.LinkBandwidth(),
	}
}

// Root creates the root complex. It must be called exactly once, first.
func (b *Builder) Root(name string) NodeID {
	if b.hasRoot {
		panic("pcie: Root called twice")
	}
	b.hasRoot = true
	id := NodeID(len(b.topo.nodes))
	b.topo.nodes = append(b.topo.nodes, Node{ID: id, Kind: KindRootComplex, Name: name, Parent: -1})
	b.topo.links = append(b.topo.links, Link{Child: id}) // placeholder
	b.topo.root = id
	return id
}

// add appends a child node linked to parent at bandwidth bw.
func (b *Builder) add(parent NodeID, kind NodeKind, name string, bw units.BytesPerSec) NodeID {
	if !b.hasRoot {
		panic("pcie: add before Root")
	}
	if b.built {
		panic("pcie: add after Build")
	}
	if int(parent) < 0 || int(parent) >= len(b.topo.nodes) {
		panic(fmt.Sprintf("pcie: unknown parent %d", parent))
	}
	pk := b.topo.nodes[parent].Kind
	if pk != KindRootComplex && pk != KindSwitch {
		panic(fmt.Sprintf("pcie: parent %q is a %v, not a switch or root complex", b.topo.nodes[parent].Name, pk))
	}
	id := NodeID(len(b.topo.nodes))
	b.topo.nodes = append(b.topo.nodes, Node{
		ID: id, Kind: kind, Name: name, Parent: parent,
		depth: b.topo.nodes[parent].depth + 1,
	})
	b.topo.links = append(b.topo.links, Link{Child: id, Bandwidth: bw})
	b.topo.nodes[parent].children = append(b.topo.nodes[parent].children, id)
	return id
}

// Switch adds a PCIe switch under parent with the default link bandwidth.
func (b *Builder) Switch(parent NodeID, name string) NodeID {
	return b.add(parent, KindSwitch, name, b.defBW)
}

// Device adds an endpoint of the given kind with the default bandwidth.
func (b *Builder) Device(parent NodeID, kind NodeKind, name string) NodeID {
	if kind == KindRootComplex || kind == KindSwitch {
		panic("pcie: Device cannot add forwarding nodes")
	}
	return b.add(parent, kind, name, b.defBW)
}

// DeviceBW adds an endpoint with an explicit link bandwidth (e.g. an SSD
// on an x4 link).
func (b *Builder) DeviceBW(parent NodeID, kind NodeKind, name string, bw units.BytesPerSec) NodeID {
	if kind == KindRootComplex || kind == KindSwitch {
		panic("pcie: DeviceBW cannot add forwarding nodes")
	}
	return b.add(parent, kind, name, bw)
}

// Build finalizes and returns the topology. The builder must not be used
// afterwards.
func (b *Builder) Build() *Topology {
	if !b.hasRoot {
		panic("pcie: Build without Root")
	}
	b.built = true
	return b.topo
}

// LinkOf returns the link connecting id to its parent. Calling it for the
// root complex panics.
func (t *Topology) LinkOf(id NodeID) Link {
	if id == t.root {
		panic("pcie: root complex has no uplink")
	}
	return t.links[id]
}

// Route returns the directional link segments a packet traverses from src
// to dst: up-links from src to the lowest common ancestor, then down-links
// to dst. Identical endpoints yield an empty route.
func (t *Topology) Route(src, dst NodeID) []Segment {
	if src == dst {
		return nil
	}
	a, bn := t.nodes[src], t.nodes[dst]
	var ups, downs []Segment
	// Climb the deeper side first.
	for a.depth > bn.depth {
		ups = append(ups, Segment{Link: a.ID, Direction: Up})
		a = t.nodes[a.Parent]
	}
	for bn.depth > a.depth {
		downs = append(downs, Segment{Link: bn.ID, Direction: Down})
		bn = t.nodes[bn.Parent]
	}
	for a.ID != bn.ID {
		ups = append(ups, Segment{Link: a.ID, Direction: Up})
		downs = append(downs, Segment{Link: bn.ID, Direction: Down})
		a = t.nodes[a.Parent]
		bn = t.nodes[bn.Parent]
	}
	// downs were collected dst→LCA; reverse for LCA→dst order.
	for i, j := 0, len(downs)-1; i < j; i, j = i+1, j-1 {
		downs[i], downs[j] = downs[j], downs[i]
	}
	return append(ups, downs...)
}

// RouteCrossesRoot reports whether the src→dst path passes through the
// root complex. The paper's clustering optimization exists exactly to make
// this false for the data path.
func (t *Topology) RouteCrossesRoot(src, dst NodeID) bool {
	for _, seg := range t.Route(src, dst) {
		if t.nodes[seg.Link].Parent == t.root {
			return true
		}
	}
	return false
}

// Validate checks structural invariants and returns an error describing
// the first violation. A topology produced by Builder is always valid;
// Validate exists for tests and for defensive checks in higher layers.
func (t *Topology) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("pcie: empty topology")
	}
	if t.nodes[t.root].Kind != KindRootComplex {
		return fmt.Errorf("pcie: root %d is not a root complex", t.root)
	}
	for _, n := range t.nodes {
		if n.ID == t.root {
			continue
		}
		if int(n.Parent) < 0 || int(n.Parent) >= len(t.nodes) {
			return fmt.Errorf("pcie: node %q has invalid parent", n.Name)
		}
		if t.links[n.ID].Bandwidth <= 0 {
			return fmt.Errorf("pcie: node %q has non-positive link bandwidth", n.Name)
		}
		if n.Kind != KindSwitch && n.Kind != KindRootComplex && len(n.children) > 0 {
			return fmt.Errorf("pcie: endpoint %q has children", n.Name)
		}
	}
	return nil
}
