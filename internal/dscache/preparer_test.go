package dscache

import (
	"fmt"
	"sync"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/memframe"
	"trainbox/internal/storage"
	"trainbox/internal/units"
)

func imageStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	s := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(s, n, 4, 1); err != nil {
		t.Fatal(err)
	}
	return s
}

func audioStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	s := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildAudioDataset(s, n, 4, 1); err != nil {
		t.Fatal(err)
	}
	return s
}

func samplesEqual(t *testing.T, label string, got, want dataprep.Prepared) {
	t.Helper()
	if got.Err != nil || want.Err != nil {
		t.Fatalf("%s: errs %v / %v", label, got.Err, want.Err)
	}
	if got.Key != want.Key || got.Label != want.Label {
		t.Fatalf("%s: identity %s/%d, want %s/%d", label, got.Key, got.Label, want.Key, want.Label)
	}
	switch {
	case want.Image != nil:
		if got.Image == nil || len(got.Image.Data) != len(want.Image.Data) {
			t.Fatalf("%s: image shape mismatch", label)
		}
		for i := range want.Image.Data {
			if got.Image.Data[i] != want.Image.Data[i] {
				t.Fatalf("%s: image cell %d = %v, want %v", label, i, got.Image.Data[i], want.Image.Data[i])
			}
		}
	case want.Audio != nil:
		if got.Audio == nil || len(got.Audio.Data) != len(want.Audio.Data) {
			t.Fatalf("%s: audio shape mismatch", label)
		}
		for i := range want.Audio.Data {
			if got.Audio.Data[i] != want.Audio.Data[i] {
				t.Fatalf("%s: audio cell %d = %v, want %v", label, i, got.Audio.Data[i], want.Audio.Data[i])
			}
		}
	default:
		t.Fatalf("%s: oracle sample carries no payload", label)
	}
}

// TestCachedImagePreparerBitIdentical is the core oracle: the cached
// preparer's output — cold (populating) and warm (hitting) — is
// byte-for-byte the uncached preparer's, across keys, seeds, and
// epochs.
func TestCachedImagePreparerBitIdentical(t *testing.T) {
	store := imageStore(t, 6)
	cfg := dataprep.DefaultImageConfig()
	plain := dataprep.ImagePreparer{Config: cfg}
	cached := ImagePreparer{Cache: New(64 * units.MB), Config: cfg}
	for _, datasetSeed := range []int64{1, 7, 42} {
		for epoch := 0; epoch < 3; epoch++ {
			for _, key := range store.Keys() {
				obj, err := store.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				seed := dataprep.SampleSeed(datasetSeed, key, epoch)
				want := plain.Prepare(obj, seed, nil)
				got := cached.Prepare(obj, seed, nil)
				samplesEqual(t, fmt.Sprintf("ds=%d epoch=%d key=%s", datasetSeed, epoch, key), got, want)
			}
		}
	}
	// 3 dataset seeds × 3 epochs touched every key 9 times; the decode
	// ran once per key.
	if s := cached.Cache.Stats(); s.Misses != 6 {
		t.Fatalf("decodes = %d, want 6 (one per key)", s.Misses)
	}

	// A warm hit pays only the seeded augmentation tail: with a reused
	// scratch and a recycled output it allocates the rand.Rand and the
	// tensor header, nothing per pixel.
	out := memframe.NewSet()
	scratch := dataprep.NewScratchWithOutput(out)
	obj, err := store.Get(store.Keys()[0])
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		p := cached.Prepare(obj, 7, scratch)
		if p.Err != nil {
			t.Fatal(p.Err)
		}
		out.F32.Put(p.Image.Data)
	})
	if allocs > 2 {
		t.Errorf("warm cached Prepare allocates %.0f objects/sample, want ≤ 2", allocs)
	}
}

// TestCachedAudioPreparerBitIdentical: same oracle for the audio
// modality, whose augmentation mutates the signal (the cached copy must
// stay pristine between consumers).
func TestCachedAudioPreparerBitIdentical(t *testing.T) {
	store := audioStore(t, 4)
	cfg := dataprep.DefaultAudioConfig()
	plain := dataprep.AudioPreparer{Config: cfg}
	cached := AudioPreparer{Cache: New(64 * units.MB), Config: cfg}
	for epoch := 0; epoch < 3; epoch++ {
		for _, key := range store.Keys() {
			obj, err := store.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			seed := dataprep.SampleSeed(3, key, epoch)
			samplesEqual(t, fmt.Sprintf("epoch=%d key=%s", epoch, key),
				cached.Prepare(obj, seed, nil), plain.Prepare(obj, seed, nil))
		}
	}
	if s := cached.Cache.Stats(); s.Misses != 4 {
		t.Fatalf("decodes = %d, want 4 (one per key)", s.Misses)
	}
}

// TestExecutorEpochThroughCacheBitIdentical: a whole executor epoch
// served through the cache (scratch path, pooled outputs) matches the
// uncached executor's epoch — cold and warm.
func TestExecutorEpochThroughCacheBitIdentical(t *testing.T) {
	store := imageStore(t, 8)
	cfg := dataprep.DefaultImageConfig()
	keys := store.Keys()
	oracle := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 4, 9)
	cachedExec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 4, 9)
	c := New(64 * units.MB)
	if fp, ok := Bind(c, cachedExec); !ok || fp != ImageFingerprint {
		t.Fatalf("Bind = (%q, %v), want (%q, true)", fp, ok, ImageFingerprint)
	}
	for epoch := 0; epoch < 3; epoch++ { // epoch 0 cold, 1..2 warm
		want, err := oracle.PrepareBatch(store, keys, epoch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cachedExec.PrepareBatch(store, keys, epoch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			samplesEqual(t, fmt.Sprintf("epoch=%d sample=%d", epoch, i), got[i], want[i])
		}
		oracle.Recycle(want...)
		cachedExec.Recycle(got...)
	}
	if s := c.Stats(); s.Misses != int64(len(keys)) {
		t.Fatalf("decodes = %d, want %d", s.Misses, len(keys))
	}
}

// TestFourConsumersAmortizeDecodes is the tentpole's measured claim at
// oracle strength: 4 concurrent executors on one dataset, one shared
// cache — total decode invocations collapse from 4×keys×epochs to keys
// (≥ 2× fewer; here 12× with 3 epochs), and every consumer's samples
// stay bit-identical to its own uncached run.
func TestFourConsumersAmortizeDecodes(t *testing.T) {
	const (
		consumers = 4
		epochs    = 3
		items     = 6
	)
	store := imageStore(t, items)
	cfg := dataprep.DefaultImageConfig()
	keys := store.Keys()
	c := New(64 * units.MB)
	var wg sync.WaitGroup
	errs := make([]error, consumers)
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each consumer is its own job: own executor, own dataset
			// seed, shared cache.
			seed := int64(100 + w)
			exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, seed)
			if _, ok := Bind(c, exec); !ok {
				errs[w] = fmt.Errorf("bind failed")
				return
			}
			oracle := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, seed)
			for epoch := 0; epoch < epochs; epoch++ {
				got, err := exec.PrepareBatch(store, keys, epoch)
				if err != nil {
					errs[w] = err
					return
				}
				want, err := oracle.PrepareBatch(store, keys, epoch)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range want {
					if got[i].Err != nil || len(got[i].Image.Data) != len(want[i].Image.Data) {
						errs[w] = fmt.Errorf("epoch %d sample %d shape/err mismatch", epoch, i)
						return
					}
					for j := range want[i].Image.Data {
						if got[i].Image.Data[j] != want[i].Image.Data[j] {
							errs[w] = fmt.Errorf("epoch %d sample %d cell %d diverged", epoch, i, j)
							return
						}
					}
				}
				exec.Recycle(got...)
				oracle.Recycle(want...)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("consumer %d: %v", w, err)
		}
	}
	s := c.Stats()
	uncachedDecodes := int64(consumers * epochs * items)
	if s.Misses != items {
		t.Fatalf("decodes = %d, want %d (single-flight + residency)", s.Misses, items)
	}
	if uncachedDecodes < 2*s.Misses {
		t.Fatalf("amortization %d/%d below the 2× acceptance bar", uncachedDecodes, s.Misses)
	}
}

// TestWrapPreparerForms covers the wrap matrix: CPU preparers wrap,
// wrapped ones re-target, video passes through unchanged.
func TestWrapPreparerForms(t *testing.T) {
	c1, c2 := New(units.MB), New(units.MB)
	img, ok := WrapPreparer(c1, dataprep.ImagePreparer{Config: dataprep.DefaultImageConfig()})
	if !ok {
		t.Fatal("image preparer did not wrap")
	}
	re, ok := WrapPreparer(c2, img)
	if !ok || re.(ImagePreparer).Cache != c2 {
		t.Fatal("wrapped preparer did not re-target")
	}
	if _, ok := WrapPreparer(c1, dataprep.AudioPreparer{}); !ok {
		t.Fatal("audio preparer did not wrap")
	}
	if _, ok := WrapPreparer(c1, unknownPreparer{}); ok {
		t.Fatal("unknown preparer unexpectedly wrapped")
	}
	if fp := PreparerFingerprint(unknownPreparer{}); fp != "" {
		t.Fatalf("unknown preparer's fingerprint = %q, want empty", fp)
	}
}

// unknownPreparer is a Preparer the tier has no cached form for.
type unknownPreparer struct{}

func (unknownPreparer) Prepare(obj storage.Object, _ int64, _ *dataprep.Scratch) dataprep.Prepared {
	return dataprep.Prepared{Key: obj.Key}
}
