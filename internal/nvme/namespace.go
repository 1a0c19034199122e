package nvme

import (
	"fmt"
	"sort"

	"trainbox/internal/storage"
)

// Extent is a named object's block placement in the namespace.
type Extent struct {
	Key string
	LBA uint64
	// Bytes is the object's exact length (the final block may be
	// partially used).
	Bytes int
	// Label carries the dataset label through the block layer.
	Label int
}

// Blocks returns the extent's block count.
func (e Extent) Blocks() uint32 {
	return uint32((e.Bytes + BlockSize - 1) / BlockSize)
}

// Namespace lays dataset objects out as contiguous block extents on a
// Controller and keeps the key→extent directory the P2P handler uses.
type Namespace struct {
	ctrl    *Controller
	extents map[string]Extent
	nextLBA uint64
}

// LoadStore provisions a controller sized for every object in the shard
// store and writes them out contiguously in key order — the train
// initializer's data-distribution step made concrete at the block level.
func LoadStore(store *storage.Store) (*Namespace, error) {
	keys := store.Keys()
	if len(keys) == 0 {
		return nil, fmt.Errorf("nvme: empty store")
	}
	var totalBlocks uint64
	for _, k := range keys {
		obj, err := store.Get(k)
		if err != nil {
			return nil, err
		}
		totalBlocks += uint64((len(obj.Data) + BlockSize - 1) / BlockSize)
	}
	ctrl, err := NewController(int(totalBlocks))
	if err != nil {
		return nil, err
	}
	ns := &Namespace{ctrl: ctrl, extents: map[string]Extent{}}
	sort.Strings(keys)
	for _, k := range keys {
		obj, err := store.Get(k)
		if err != nil {
			return nil, err
		}
		ext := Extent{Key: k, LBA: ns.nextLBA, Bytes: len(obj.Data), Label: obj.Label}
		if err := ctrl.WriteBlocks(ext.LBA, obj.Data); err != nil {
			return nil, err
		}
		ns.extents[k] = ext
		ns.nextLBA += uint64(ext.Blocks())
	}
	return ns, nil
}

// Extent resolves a key to its placement.
func (ns *Namespace) Extent(key string) (Extent, error) {
	e, ok := ns.extents[key]
	if !ok {
		return Extent{}, fmt.Errorf("nvme: no extent for %q", key)
	}
	return e, nil
}

// Len returns the number of stored objects.
func (ns *Namespace) Len() int { return len(ns.extents) }

// Client is the FPGA-resident NVMe command generator of the P2P handler:
// it reads objects from the namespace purely through the queue-pair
// interface, with no host software on the path.
type Client struct {
	ns     *Namespace
	qp     *QueuePair
	nextID uint16
}

// NewClient creates a client with its own queue pair of the given depth.
func NewClient(ns *Namespace, depth int) (*Client, error) {
	qp, err := NewQueuePair(depth)
	if err != nil {
		return nil, err
	}
	return &Client{ns: ns, qp: qp}, nil
}

// ReadObject fetches a stored object by key: resolve the extent, issue a
// read command, ring the doorbell, poll the completion, and trim to the
// object's byte length.
func (c *Client) ReadObject(key string) (storage.Object, error) {
	ext, err := c.ns.Extent(key)
	if err != nil {
		return storage.Object{}, err
	}
	c.nextID++
	cmd := Command{ID: c.nextID, Opcode: OpRead, LBA: ext.LBA, NumBlocks: ext.Blocks()}
	if !c.qp.Submit(cmd) {
		return storage.Object{}, fmt.Errorf("nvme: submission queue full")
	}
	c.ns.ctrl.Doorbell(c.qp)
	comp, ok := c.qp.Poll()
	if !ok {
		return storage.Object{}, fmt.Errorf("nvme: no completion posted for %q", key)
	}
	if comp.CommandID != cmd.ID {
		return storage.Object{}, fmt.Errorf("nvme: completion for command %d, want %d", comp.CommandID, cmd.ID)
	}
	if comp.Status != StatusSuccess {
		return storage.Object{}, fmt.Errorf("nvme: read %q failed: %v", key, comp.Status)
	}
	return storage.Object{Key: key, Label: ext.Label, Data: comp.Data[:ext.Bytes]}, nil
}
