package nvme

import (
	"bytes"
	"testing"
	"testing/quick"

	"trainbox/internal/dataprep"
	"trainbox/internal/storage"
)

func TestQueuePairDepthAndWraparound(t *testing.T) {
	qp, err := NewQueuePair(4)
	if err != nil {
		t.Fatal(err)
	}
	// Fill, drain, and refill across the wrap boundary several times.
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if !qp.Submit(Command{ID: uint16(round*4 + i)}) {
				t.Fatalf("round %d: submit %d rejected", round, i)
			}
		}
		if qp.Submit(Command{ID: 99}) {
			t.Fatal("full queue accepted a command")
		}
		if qp.sq.count != 4 {
			t.Fatalf("depth = %d", qp.sq.count)
		}
		for i := 0; i < 4; i++ {
			cmd, ok := qp.sq.pop()
			if !ok || cmd.ID != uint16(round*4+i) {
				t.Fatalf("round %d: popped %v/%v, want ID %d", round, cmd.ID, ok, round*4+i)
			}
		}
	}
	if _, err := NewQueuePair(1); err == nil {
		t.Error("depth-1 queue accepted")
	}
}

func TestControllerReadRoundTrip(t *testing.T) {
	ctrl, err := NewController(8)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 2*BlockSize)
	if err := ctrl.WriteBlocks(3, payload); err != nil {
		t.Fatal(err)
	}
	qp, _ := NewQueuePair(4)
	qp.Submit(Command{ID: 7, Opcode: OpRead, LBA: 3, NumBlocks: 2})
	ctrl.Doorbell(qp)
	comp, ok := qp.Poll()
	if !ok {
		t.Fatal("no completion")
	}
	if comp.CommandID != 7 || comp.Status != StatusSuccess {
		t.Fatalf("completion = %+v", comp)
	}
	if !bytes.Equal(comp.Data, payload) {
		t.Error("read data mismatch")
	}
}

func TestControllerErrorStatuses(t *testing.T) {
	ctrl, _ := NewController(4)
	qp, _ := NewQueuePair(8)
	qp.Submit(Command{ID: 1, Opcode: Opcode(0x99), LBA: 0, NumBlocks: 1})
	qp.Submit(Command{ID: 2, Opcode: OpRead, LBA: 3, NumBlocks: 2}) // past end
	qp.Submit(Command{ID: 3, Opcode: OpRead, LBA: 0, NumBlocks: 0}) // zero-length
	ctrl.Doorbell(qp)
	wants := []Status{StatusInvalidOp, StatusLBAOutOfRange, StatusLBAOutOfRange}
	for i, want := range wants {
		comp, ok := qp.Poll()
		if !ok {
			t.Fatalf("missing completion %d", i)
		}
		if comp.Status != want {
			t.Errorf("completion %d status = %v, want %v", i, comp.Status, want)
		}
	}
	if _, err := NewController(0); err == nil {
		t.Error("zero-block controller accepted")
	}
	if err := ctrl.WriteBlocks(3, make([]byte, 2*BlockSize)); err == nil {
		t.Error("out-of-range write accepted")
	}
}

func TestDoorbellStopsWhenCompletionQueueFull(t *testing.T) {
	ctrl, _ := NewController(16)
	qp, _ := NewQueuePair(2)
	qp.Submit(Command{ID: 1, Opcode: OpRead, LBA: 0, NumBlocks: 1})
	qp.Submit(Command{ID: 2, Opcode: OpRead, LBA: 1, NumBlocks: 1})
	ctrl.Doorbell(qp)
	if qp.cq.count != 2 {
		t.Fatalf("completions = %d", qp.cq.count)
	}
	// CQ full; a third command must stay pending until a poll frees room.
	qp.Submit(Command{ID: 3, Opcode: OpRead, LBA: 2, NumBlocks: 1})
	ctrl.Doorbell(qp)
	if qp.sq.count != 1 {
		t.Errorf("pending commands = %d, want 1 (flow control)", qp.sq.count)
	}
	qp.Poll()
	ctrl.Doorbell(qp)
	if qp.sq.count != 0 || qp.cq.count != 2 {
		t.Errorf("after poll: sq=%d cq=%d", qp.sq.count, qp.cq.count)
	}
}

func TestCompletionOrderMatchesSubmission(t *testing.T) {
	ctrl, _ := NewController(32)
	qp, _ := NewQueuePair(16)
	for i := 0; i < 10; i++ {
		qp.Submit(Command{ID: uint16(i), Opcode: OpRead, LBA: uint64(i), NumBlocks: 1})
	}
	ctrl.Doorbell(qp)
	for i := 0; i < 10; i++ {
		comp, ok := qp.Poll()
		if !ok || comp.CommandID != uint16(i) {
			t.Fatalf("completion %d out of order: %+v", i, comp)
		}
	}
}

func buildImageNamespace(t *testing.T, n int) (*storage.Store, *Namespace) {
	t.Helper()
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, n, 4, 3); err != nil {
		t.Fatal(err)
	}
	ns, err := LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	return store, ns
}

func TestNamespaceLoadAndRead(t *testing.T) {
	store, ns := buildImageNamespace(t, 6)
	if ns.Len() != 6 {
		t.Fatalf("namespace objects = %d", ns.Len())
	}
	client, err := NewClient(ns, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range store.Keys() {
		want, _ := store.Get(key)
		got, err := client.ReadObject(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%s: block-layer read differs from store", key)
		}
		if got.Label != want.Label {
			t.Fatalf("%s: label %d, want %d", key, got.Label, want.Label)
		}
	}
	if _, err := client.ReadObject("missing"); err == nil {
		t.Error("missing key accepted")
	}
}

func TestNamespaceExtentsNonOverlappingProperty(t *testing.T) {
	store, ns := buildImageNamespace(t, 8)
	type span struct{ start, end uint64 }
	var spans []span
	for _, key := range store.Keys() {
		ext, err := ns.Extent(key)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, span{ext.LBA, ext.LBA + uint64(ext.Blocks())})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.start < b.end && b.start < a.end {
				t.Fatalf("extents overlap: %+v and %+v", a, b)
			}
		}
	}
	// Property: every extent fits in the namespace.
	f := func(idx uint8) bool {
		keys := store.Keys()
		ext, err := ns.Extent(keys[int(idx)%len(keys)])
		if err != nil {
			return false
		}
		return ext.LBA+uint64(ext.Blocks()) <= ns.ctrl.NumBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLoadStoreEmpty(t *testing.T) {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if _, err := LoadStore(store); err == nil {
		t.Error("empty store accepted")
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{StatusSuccess, StatusInvalidOp, StatusLBAOutOfRange, Status(0x42)} {
		if s.String() == "" {
			t.Errorf("status %d has empty string", s)
		}
	}
}
