// Package nvme implements a minimal NVMe block device with submission
// and completion queue pairs — the substrate behind TrainBox's P2P
// handler (Section V-C): "we implement NVMe command generators, and
// place NVMe command and completion queues in the FPGA memory. In this
// way, FPGAs can issue NVMe commands and fetch the data from SSDs."
//
// The model covers what the datapath needs: a block-addressed namespace
// backed by memory, fixed-depth ring queues with head/tail doorbells,
// read commands, and in-order completion posting. A Namespace also maps
// named dataset objects to block extents so the FPGA-side client
// (internal/fpga's P2P handler) can fetch stored items without any
// host-software involvement — the property the paper's P2P optimization
// delivers.
package nvme

import (
	"fmt"
)

// BlockSize is the logical block size in bytes (standard 4 KiB).
const BlockSize = 4096

// Opcode identifies the NVMe command type.
type Opcode uint8

// Supported opcodes.
const (
	OpRead Opcode = 0x02
)

// Command is one submission-queue entry.
type Command struct {
	ID     uint16 // command identifier, echoed in the completion
	Opcode Opcode
	// LBA is the starting logical block address.
	LBA uint64
	// NumBlocks is the 1-based block count (NVMe encodes 0-based; the
	// model keeps the natural count).
	NumBlocks uint32
}

// Status is a completion status code.
type Status uint16

// Status codes.
const (
	StatusSuccess       Status = 0x0
	StatusInvalidOp     Status = 0x1
	StatusLBAOutOfRange Status = 0x80
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusInvalidOp:
		return "invalid-opcode"
	case StatusLBAOutOfRange:
		return "lba-out-of-range"
	}
	return fmt.Sprintf("status(%#x)", uint16(s))
}

// Completion is one completion-queue entry.
type Completion struct {
	CommandID uint16
	Status    Status
	// Data holds the read payload on success (the model's stand-in for
	// the DMA into the FPGA's on-board DRAM).
	Data []byte
}

// queue is a fixed-depth ring.
type queue[T any] struct {
	entries []T
	head    int // consumer index
	tail    int // producer index
	count   int
}

func newQueue[T any](depth int) *queue[T] {
	return &queue[T]{entries: make([]T, depth)}
}

func (q *queue[T]) push(v T) bool {
	if q.count == len(q.entries) {
		return false
	}
	q.entries[q.tail] = v
	q.tail = (q.tail + 1) % len(q.entries)
	q.count++
	return true
}

func (q *queue[T]) pop() (T, bool) {
	var zero T
	if q.count == 0 {
		return zero, false
	}
	v := q.entries[q.head]
	q.entries[q.head] = zero
	q.head = (q.head + 1) % len(q.entries)
	q.count--
	return v, true
}

// QueuePair is a submission/completion queue pair of equal depth.
type QueuePair struct {
	sq *queue[Command]
	cq *queue[Completion]
}

// NewQueuePair allocates a queue pair; depth must be ≥ 2 (NVMe's
// minimum).
func NewQueuePair(depth int) (*QueuePair, error) {
	if depth < 2 {
		return nil, fmt.Errorf("nvme: queue depth %d below the NVMe minimum of 2", depth)
	}
	return &QueuePair{sq: newQueue[Command](depth), cq: newQueue[Completion](depth)}, nil
}

// Submit enqueues a command; it reports false when the submission queue
// is full (the caller must ring later).
func (qp *QueuePair) Submit(cmd Command) bool { return qp.sq.push(cmd) }

// Poll dequeues one completion if available.
func (qp *QueuePair) Poll() (Completion, bool) { return qp.cq.pop() }

// Controller is the device side: it owns the backing blocks and
// processes queue pairs on Doorbell rings.
type Controller struct {
	blocks []byte // namespace backing store
}

// NewController creates a controller with capacity for numBlocks logical
// blocks.
func NewController(numBlocks int) (*Controller, error) {
	if numBlocks <= 0 {
		return nil, fmt.Errorf("nvme: namespace needs at least one block")
	}
	return &Controller{blocks: make([]byte, numBlocks*BlockSize)}, nil
}

// NumBlocks returns the namespace size in blocks.
func (c *Controller) NumBlocks() uint64 { return uint64(len(c.blocks) / BlockSize) }

// WriteBlocks copies data into the namespace at the given LBA (a
// provisioning-side helper: datasets are written once, then read over
// the queue interface).
func (c *Controller) WriteBlocks(lba uint64, data []byte) error {
	end := lba*BlockSize + uint64(len(data))
	if end > uint64(len(c.blocks)) {
		return fmt.Errorf("nvme: write [%d, %d) beyond namespace of %d blocks", lba, end/BlockSize+1, c.NumBlocks())
	}
	copy(c.blocks[lba*BlockSize:end], data)
	return nil
}

// Doorbell processes every pending submission on the queue pair in
// order, posting one completion each. Completions that do not fit in the
// completion queue leave their commands pending (processed on the next
// ring), mirroring real controller flow control.
func (c *Controller) Doorbell(qp *QueuePair) {
	for qp.sq.count > 0 && qp.cq.count < len(qp.cq.entries) {
		cmd, _ := qp.sq.pop()
		qp.cq.push(c.execute(cmd))
	}
}

func (c *Controller) execute(cmd Command) Completion {
	comp := Completion{CommandID: cmd.ID}
	if cmd.Opcode != OpRead {
		comp.Status = StatusInvalidOp
		return comp
	}
	start := cmd.LBA * BlockSize
	end := start + uint64(cmd.NumBlocks)*BlockSize
	if cmd.NumBlocks == 0 || end > uint64(len(c.blocks)) {
		comp.Status = StatusLBAOutOfRange
		return comp
	}
	comp.Data = append([]byte(nil), c.blocks[start:end]...)
	comp.Status = StatusSuccess
	return comp
}
