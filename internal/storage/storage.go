// Package storage models the NVMe SSDs that feed TrainBox's data
// preparation, plus a small in-memory dataset shard store used by the
// functional pipeline.
//
// The performance model is intentionally the one the paper uses: SSDs
// matter only through sequential read bandwidth (Figures 10/11 account
// an "SSD read" component), so an SSD is a bandwidth-limited server. The
// shard store exists so end-to-end tests can move real JPEG/PCM payloads
// through the same code path the models account for.
package storage

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"trainbox/internal/faults"
	"trainbox/internal/metrics"
	"trainbox/internal/units"
)

// SSDSpec describes one NVMe device.
type SSDSpec struct {
	Name string
	// ReadBandwidth is the sequential read bandwidth.
	ReadBandwidth units.BytesPerSec
	// Capacity bounds stored bytes; 0 means unbounded (model-only use).
	Capacity units.Bytes
}

// DefaultSSDSpec matches a datacenter NVMe drive of the paper's era
// (~3.2 GB/s sequential read).
func DefaultSSDSpec() SSDSpec {
	return SSDSpec{Name: "nvme", ReadBandwidth: units.BytesPerSec(3.2 * 1e9), Capacity: 4 * units.TB}
}

// Object is one stored dataset item (a JPEG file or a PCM stream) with
// its label.
type Object struct {
	Key   string
	Label int
	Data  []byte
}

// Store is an in-memory object store standing in for one SSD's dataset
// shard. It is safe for concurrent use.
type Store struct {
	spec SSDSpec

	mu      sync.RWMutex
	objects map[string]Object
	keys    []string // sorted iteration order
	used    units.Bytes
	dirty   bool

	inj   faults.Injector
	retry faults.RetryPolicy

	mBytesRead    *metrics.Counter   // storage.<name>.bytes_read
	mReads        *metrics.Counter   // storage.<name>.reads
	mReadNs       *metrics.Histogram // storage.<name>.read_ns
	mRetries      *metrics.Counter   // storage.<name>.retries
	mBackoffNs    *metrics.Counter   // storage.<name>.retry_backoff_ns
	mPuts         *metrics.Counter   // storage.<name>.puts
	mBytesWritten *metrics.Counter   // storage.<name>.bytes_written
	mMisses       *metrics.Counter   // storage.<name>.misses
}

// NewStore creates an empty shard on a device with the given spec.
func NewStore(spec SSDSpec) *Store {
	return &Store{spec: spec, objects: map[string]Object{}}
}

// WithMetrics attaches a registry: every successful read reports bytes
// read, read count, and read-latency quantiles; every successful write
// reports put count and bytes written; reads of absent keys count as
// misses — all under "storage.<device>.*". Attach before the store is
// shared across goroutines; returns s for chaining.
func (s *Store) WithMetrics(reg *metrics.Registry) *Store {
	prefix := "storage." + s.spec.Name + "."
	s.mBytesRead = reg.Counter(prefix + "bytes_read")
	s.mReads = reg.Counter(prefix + "reads")
	s.mReadNs = reg.Histogram(prefix + "read_ns")
	s.mRetries = reg.Counter(prefix + "retries")
	s.mBackoffNs = reg.Counter(prefix + "retry_backoff_ns")
	s.mPuts = reg.Counter(prefix + "puts")
	s.mBytesWritten = reg.Counter(prefix + "bytes_written")
	s.mMisses = reg.Counter(prefix + "misses")
	return s
}

// WithFaults attaches a fault injector consulted on every GetContext
// read attempt under op name "storage.read" — the chaos-testing hook.
// A nil injector (the default) keeps the fault-free fast path. Attach
// before the store is shared across goroutines; returns s for chaining.
func (s *Store) WithFaults(inj faults.Injector) *Store {
	s.inj = inj
	return s
}

// WithRetry makes GetContext survive transient read faults: each read
// runs under the policy's bounded retry loop with exponential backoff,
// jitter, and per-attempt deadlines. Permanent errors (a missing key,
// a cancelled context) are never retried. Retry counts and backoff time
// report under "storage.<device>.retries" / ".retry_backoff_ns" when a
// registry is attached. Attach before sharing; returns s for chaining.
func (s *Store) WithRetry(p faults.RetryPolicy) *Store {
	s.retry = p
	return s
}

// Put stores an object, replacing any previous object with the same key.
// It fails when the device capacity would be exceeded.
func (s *Store) Put(obj Object) error {
	if obj.Key == "" {
		return fmt.Errorf("storage: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.used + units.Bytes(len(obj.Data))
	if old, ok := s.objects[obj.Key]; ok {
		next -= units.Bytes(len(old.Data))
	} else {
		s.dirty = true
	}
	if s.spec.Capacity > 0 && next > s.spec.Capacity {
		return fmt.Errorf("storage: %s full: %v + %d bytes exceeds %v",
			s.spec.Name, s.used, len(obj.Data), s.spec.Capacity)
	}
	s.objects[obj.Key] = obj
	s.used = next
	s.mPuts.Inc()
	s.mBytesWritten.Add(int64(len(obj.Data)))
	return nil
}

// Get retrieves an object by key.
func (s *Store) Get(key string) (Object, error) {
	start := time.Now()
	s.mu.RLock()
	obj, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		// The missing-key path is the only miss: fault-injected or
		// cancelled attempts are transient and report as retries, not as
		// absent data. GetContext inherits this count through Get.
		s.mMisses.Inc()
		return Object{}, fmt.Errorf("storage: %s: no object %q", s.spec.Name, key)
	}
	s.mReads.Inc()
	s.mBytesRead.Add(int64(len(obj.Data)))
	s.mReadNs.ObserveDuration(time.Since(start))
	return obj, nil
}

// GetContext retrieves an object by key, honouring cancellation: a read
// issued after the pipeline's context is cancelled fails immediately
// instead of feeding a dead pipeline. The in-memory lookup itself is
// not interruptible (it completes in microseconds); the context gate is
// the contract real storage backends would extend to in-flight I/O.
//
// With a fault injector attached (WithFaults) each attempt first runs
// the injector's decision; with a retry policy attached (WithRetry)
// transient faults are retried with backoff instead of surfacing. With
// neither configured this is exactly Get plus the context gate.
func (s *Store) GetContext(ctx context.Context, key string) (Object, error) {
	if err := ctx.Err(); err != nil {
		return Object{}, fmt.Errorf("storage: %s: read %q: %w", s.spec.Name, key, err)
	}
	if s.inj == nil && !s.retry.Enabled() {
		return s.Get(key)
	}
	var obj Object
	stats, err := s.retry.Do(ctx, "storage.read", key, func(actx context.Context, attempt int) error {
		if ferr := faults.Apply(actx, s.inj, faults.Op{Name: "storage.read", Key: key, Attempt: attempt}); ferr != nil {
			return fmt.Errorf("storage: %s: read %q: %w", s.spec.Name, key, ferr)
		}
		var gerr error
		obj, gerr = s.Get(key)
		return gerr
	})
	if stats.Attempts > 1 {
		s.mRetries.Add(int64(stats.Attempts - 1))
		s.mBackoffNs.Add(int64(stats.Backoff))
	}
	if err != nil {
		return Object{}, err
	}
	return obj, nil
}

// Keys returns all keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		s.keys = s.keys[:0]
		for k := range s.objects {
			s.keys = append(s.keys, k)
		}
		sort.Strings(s.keys)
		s.dirty = false
	}
	return append([]string(nil), s.keys...)
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// UsedBytes returns the stored byte total.
func (s *Store) UsedBytes() units.Bytes {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// MeanObjectSize returns the average stored object size, or 0 when empty.
// The system model uses it as the per-sample SSD read volume.
func (s *Store) MeanObjectSize() units.Bytes {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.objects) == 0 {
		return 0
	}
	return s.used / units.Bytes(len(s.objects))
}

// Partition distributes keys round-robin across n shards — the train
// initializer's data-distribution step ("distributes the data to SSDs in
// each train box", Section V-A). It returns the key lists per shard.
func Partition(keys []string, n int) ([][]string, error) {
	if n <= 0 {
		return nil, fmt.Errorf("storage: cannot partition into %d shards", n)
	}
	out := make([][]string, n)
	for i, k := range keys {
		out[i%n] = append(out[i%n], k)
	}
	return out, nil
}
