package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"trainbox/internal/metrics"
	"trainbox/internal/units"
)

func TestStorePutGet(t *testing.T) {
	s := NewStore(DefaultSSDSpec())
	obj := Object{Key: "img-0001", Label: 3, Data: []byte("jpegdata")}
	if err := s.Put(obj); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("img-0001")
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != 3 || string(got.Data) != "jpegdata" {
		t.Errorf("got %+v", got)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Error("missing key accepted")
	}
	if err := s.Put(Object{Key: ""}); err == nil {
		t.Error("empty key accepted")
	}
}

func TestStoreReplaceAdjustsUsage(t *testing.T) {
	s := NewStore(SSDSpec{Name: "x", ReadBandwidth: units.GBps, Capacity: 100})
	if err := s.Put(Object{Key: "a", Data: make([]byte, 60)}); err != nil {
		t.Fatal(err)
	}
	// Replacing with a smaller object must free space.
	if err := s.Put(Object{Key: "a", Data: make([]byte, 10)}); err != nil {
		t.Fatal(err)
	}
	if s.UsedBytes() != 10 {
		t.Errorf("used = %v, want 10", s.UsedBytes())
	}
	if err := s.Put(Object{Key: "b", Data: make([]byte, 80)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Object{Key: "c", Data: make([]byte, 20)}); err == nil {
		t.Error("over-capacity put accepted")
	}
}

func TestStoreKeysSortedAndStable(t *testing.T) {
	s := NewStore(DefaultSSDSpec())
	for _, k := range []string{"c", "a", "b"} {
		if err := s.Put(Object{Key: k, Data: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Errorf("keys = %v", keys)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreMeanObjectSize(t *testing.T) {
	s := NewStore(DefaultSSDSpec())
	if s.MeanObjectSize() != 0 {
		t.Error("empty store mean should be 0")
	}
	s.Put(Object{Key: "a", Data: make([]byte, 100)})
	s.Put(Object{Key: "b", Data: make([]byte, 300)})
	if got := s.MeanObjectSize(); got != 200 {
		t.Errorf("mean = %v, want 200", got)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(DefaultSSDSpec())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Put(Object{Key: key, Data: []byte{byte(i)}}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(key); err != nil {
					t.Error(err)
					return
				}
				s.Keys()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Errorf("Len = %d, want 400", s.Len())
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	shards, err := Partition(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards[0]) != 3 || len(shards[1]) != 2 {
		t.Errorf("shard sizes %d/%d", len(shards[0]), len(shards[1]))
	}
	if _, err := Partition(keys, 0); err == nil {
		t.Error("zero shards accepted")
	}
}

func TestPartitionPropertyCompleteAndBalanced(t *testing.T) {
	f := func(nKeys uint8, nShards uint8) bool {
		n := int(nShards%16) + 1
		keys := make([]string, nKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%03d", i)
		}
		shards, err := Partition(keys, n)
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		minL, maxL := len(keys)+1, -1
		for _, sh := range shards {
			if len(sh) < minL {
				minL = len(sh)
			}
			if len(sh) > maxL {
				maxL = len(sh)
			}
			for _, k := range sh {
				if seen[k] {
					return false // duplicate
				}
				seen[k] = true
			}
		}
		return len(seen) == len(keys) && maxL-minL <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGetContext(t *testing.T) {
	s := NewStore(DefaultSSDSpec())
	if err := s.Put(Object{Key: "a", Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	obj, err := s.GetContext(context.Background(), "a")
	if err != nil || obj.Key != "a" {
		t.Fatalf("GetContext = %+v, %v", obj, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.GetContext(ctx, "a"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled read: err = %v, want context.Canceled", err)
	}
	if _, err := s.GetContext(context.Background(), "missing"); err == nil {
		t.Error("missing key accepted")
	}
}

// TestStoreMetrics: a metered store must count reads and bytes and
// record read-latency quantiles; failed lookups must not count.
func TestStoreMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewStore(DefaultSSDSpec()).WithMetrics(reg)
	if err := s.Put(Object{Key: "a", Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Object{Key: "b", Data: make([]byte, 50)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("missing key read succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["storage.nvme.reads"]; got != 3 {
		t.Errorf("reads = %d, want 3 (failed lookup must not count)", got)
	}
	if got := snap.Counters["storage.nvme.bytes_read"]; got != 250 {
		t.Errorf("bytes_read = %d, want 250", got)
	}
	lat := snap.Histograms["storage.nvme.read_ns"]
	if lat.Count != 3 || lat.Max <= 0 {
		t.Errorf("read_ns histogram = %+v, want 3 positive observations", lat)
	}
}
