package dataprep

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"trainbox/internal/memframe"
	"trainbox/internal/storage"
)

// TestPrepareImageScratchBitIdentical reuses one Scratch across many
// (sample, seed) pairs and asserts byte-for-byte equality with the
// nil-scratch (throwaway working set) form.
func TestPrepareImageScratchBitIdentical(t *testing.T) {
	store := imageStore(t, 6)
	cfg := DefaultImageConfig()
	s := NewScratch()
	for i := 0; i < 6; i++ {
		obj, err := store.Get(keyOf(t, store, i, "img"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42, -7, 1 << 40} {
			want, err := PrepareImageScratch(obj.Data, cfg, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PrepareImageScratch(obj.Data, cfg, seed, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.C != want.C || got.H != want.H || got.W != want.W {
				t.Fatalf("shape (%d,%d,%d) != (%d,%d,%d)", got.C, got.H, got.W, want.C, want.H, want.W)
			}
			for j := range want.Data {
				if got.Data[j] != want.Data[j] {
					t.Fatalf("sample %d seed %d: data[%d] = %v, want %v (bit-exact)", i, seed, j, got.Data[j], want.Data[j])
				}
			}
		}
	}
}

// TestPrepareImageNoiselessDigestPinned pins an FNV-64a digest of
// noiseless image preparation (decode → random crop → mirror → cast)
// over 8 samples and seeds. The digest was recorded from the per-pixel
// At/Set decode, mirror and cast kernels the plane walk, the slice
// mirror and the lookup-table cast replaced, so it proves those three
// are bit-exact end to end; only the noise stream changed.
func TestPrepareImageNoiselessDigestPinned(t *testing.T) {
	const want = 0x9fc3b8741de7985a
	store := imageStore(t, 8)
	cfg := DefaultImageConfig()
	cfg.NoiseStd = 0
	s := NewScratch()
	h := fnv.New64a()
	var buf [4]byte
	for i := 0; i < 8; i++ {
		obj, err := store.Get(keyOf(t, store, i, "img"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := PrepareImageScratch(obj.Data, cfg, int64(i), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("noiseless prepare digest = %#x, want %#x", got, uint64(want))
	}
}

// TestPrepareImageScratchNoAugment covers the center-crop arm.
func TestPrepareImageScratchNoAugment(t *testing.T) {
	store := imageStore(t, 2)
	cfg := DefaultImageConfig()
	cfg.Augment = false
	obj, err := store.Get("img-00000")
	if err != nil {
		t.Fatal(err)
	}
	want, err := PrepareImageScratch(obj.Data, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PrepareImageScratch(obj.Data, cfg, 3, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Data {
		if got.Data[j] != want.Data[j] {
			t.Fatalf("data[%d] = %v, want %v", j, got.Data[j], want.Data[j])
		}
	}
}

// TestPrepareAudioScratchBitIdentical reuses one Scratch (and its
// cached MelPlan) across samples and seeds against the nil-scratch form.
func TestPrepareAudioScratchBitIdentical(t *testing.T) {
	store := audioStore(t, 3)
	cfg := DefaultAudioConfig()
	s := NewScratch()
	for i := 0; i < 3; i++ {
		obj, err := store.Get(keyOf(t, store, i, "aud"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 99, -13} {
			want, err := PrepareAudioScratch(obj.Data, cfg, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PrepareAudioScratch(obj.Data, cfg, seed, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.Frames != want.Frames || got.Bins != want.Bins {
				t.Fatalf("shape %dx%d != %dx%d", got.Frames, got.Bins, want.Frames, want.Bins)
			}
			for j := range want.Data {
				if got.Data[j] != want.Data[j] && !(math.IsNaN(got.Data[j]) && math.IsNaN(want.Data[j])) {
					t.Fatalf("sample %d seed %d: data[%d] = %v, want %v (bit-exact)", i, seed, j, got.Data[j], want.Data[j])
				}
			}
		}
	}
}

// keyOf formats the builder key naming ("img-%05d" etc.) and asserts it
// exists, catching drift between the builders and the tests.
func keyOf(t *testing.T, store *storage.Store, i int, prefix string) string {
	t.Helper()
	key := prefixKey(prefix, i)
	if _, err := store.Get(key); err != nil {
		t.Fatalf("dataset key %q missing: %v", key, err)
	}
	return key
}

func prefixKey(prefix string, i int) string {
	const digits = "00000"
	buf := []byte(prefix + "-" + digits)
	for p := len(buf) - 1; i > 0; p-- {
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf)
}

// TestExecutorScratchPathMatchesDirect runs a batch through the
// Executor (pooled scratches + pooled outputs) and asserts each sample
// equals the direct Prepare path, then recycles and asserts the output
// pool reuses the buffers: in steady state News ≪ Gets.
func TestExecutorScratchPathMatchesDirect(t *testing.T) {
	store := imageStore(t, 8)
	cfg := DefaultImageConfig()
	exec := NewExecutor(ImagePreparer{Config: cfg}, 2, 7)
	keys := store.Keys()

	var prev []Prepared
	for epoch := 0; epoch < 5; epoch++ {
		batch, err := exec.PrepareBatch(store, keys, epoch)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range batch {
			obj, err := store.Get(p.Key)
			if err != nil {
				t.Fatal(err)
			}
			want, err := PrepareImageScratch(obj.Data, cfg, SampleSeed(7, p.Key, epoch), nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want.Data {
				if p.Image.Data[j] != want.Data[j] {
					t.Fatalf("epoch %d key %s: data[%d] = %v, want %v", epoch, p.Key, j, p.Image.Data[j], want.Data[j])
				}
			}
		}
		// Recycle the previous epoch only after verifying this one, the
		// way train's extract stage staggers recycling behind prepare.
		exec.Recycle(prev...)
		prev = batch
	}
	exec.Recycle(prev...)

	ss := exec.scratches.Stats()
	if ss.Gets == 0 {
		t.Fatal("scratch pool never used — executor is not on the scratch path")
	}
	limit := ss.Gets / 4
	if raceEnabled {
		// sync.Pool drops a quarter of its Puts on purpose under the race
		// detector: News is 7…21 of 40 Gets over 60 runs there. 5/8 clears
		// that spread and still fails an executor that left the scratch
		// path (News == Gets).
		limit = ss.Gets * 5 / 8
	}
	if ss.News > limit {
		t.Errorf("scratch pool reuse too low: News=%d Gets=%d (want News ≪ Gets)", ss.News, ss.Gets)
	}
	os := exec.OutputStats()
	if os.Gets != 5*int64(len(keys)) {
		t.Errorf("output Gets = %d, want %d", os.Gets, 5*len(keys))
	}
	if os.Puts == 0 {
		t.Error("Recycle never returned a buffer to the output pool")
	}
	if os.News*2 > os.Gets {
		t.Errorf("output pool reuse too low: News=%d Gets=%d (want News ≪ Gets)", os.News, os.Gets)
	}
}

// TestExecutorRecycleIdempotentOnFresh asserts recycling samples that
// did not come from a pooled path leaves them, and every pool, alone.
func TestExecutorRecycleIdempotentOnFresh(t *testing.T) {
	store := imageStore(t, 2)
	cfg := DefaultImageConfig()
	obj, err := store.Get("img-00000")
	if err != nil {
		t.Fatal(err)
	}
	tensor, err := PrepareImageScratch(obj.Data, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(ImagePreparer{Config: cfg}, 1, 1)
	ps := []Prepared{{Key: "x", Image: tensor}, NewScratch().Prepare(ImagePreparer{Config: cfg}, obj, 1), {}}
	exec.Recycle(ps...)
	if ps[0].Image != tensor || ps[1].Image == nil {
		t.Error("Recycle cleared a fresh sample")
	}
	if st := exec.OutputStats(); st.Puts != 0 {
		t.Errorf("fresh samples reached the executor's pools: %+v", st)
	}
}

// TestRecycleReturnsToOwner: a sample prepared through a Scratch's
// Prepare goes back to the Set that Scratch draws from, whichever
// producer it came from, and Recycle clears it from the caller's slice.
func TestRecycleReturnsToOwner(t *testing.T) {
	store := imageStore(t, 1)
	obj, err := store.Get("img-00000")
	if err != nil {
		t.Fatal(err)
	}
	audio, err := audioStore(t, 1).Get("aud-00000")
	if err != nil {
		t.Fatal(err)
	}
	host, device := memframe.NewSet(), memframe.NewSet()
	ps := []Prepared{
		NewScratchWithOutput(host).Prepare(ImagePreparer{Config: DefaultImageConfig()}, obj, 1),
		NewScratchWithOutput(device).Prepare(ImagePreparer{Config: DefaultImageConfig()}, obj, 2),
		NewScratchWithOutput(device).Prepare(AudioPreparer{Config: DefaultAudioConfig()}, audio, 3),
	}
	Recycle(ps...)
	for i, p := range ps {
		if p.Image != nil || p.Audio != nil || p.owner != nil {
			t.Errorf("sample %d still holds its buffer after Recycle", i)
		}
	}
	Recycle(ps...) // a second call finds nothing to return
	if st := host.Stats(); st.Gets != 1 || st.Puts != 1 {
		t.Errorf("host set %+v, want one buffer out and back", st)
	}
	if st := device.Stats(); st.Gets != 2 || st.Puts != 2 {
		t.Errorf("device set %+v, want two buffers out and back", st)
	}
}

// TestScratchOutputPoolFeedsBack prepares, recycles, and prepares again
// with a single explicit Scratch, asserting the second tensor reuses
// the recycled buffer (same backing array) and stays bit-identical.
func TestScratchOutputPoolFeedsBack(t *testing.T) {
	store := imageStore(t, 1)
	cfg := DefaultImageConfig()
	obj, err := store.Get("img-00000")
	if err != nil {
		t.Fatal(err)
	}
	out := memframe.NewSet()
	s := NewScratchWithOutput(out)

	t1, err := PrepareImageScratch(obj.Data, cfg, 11, s)
	if err != nil {
		t.Fatal(err)
	}
	first := &t1.Data[0]
	out.F32.Put(t1.Data)

	t2, err := PrepareImageScratch(obj.Data, cfg, 11, s)
	if err != nil {
		t.Fatal(err)
	}
	if &t2.Data[0] != first {
		t.Error("second prepare did not reuse the recycled output buffer")
	}
	want, err := PrepareImageScratch(obj.Data, cfg, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Data {
		if t2.Data[j] != want.Data[j] {
			t.Fatalf("recycled-buffer prepare diverged at [%d]", j)
		}
	}
	st := out.Stats()
	if st.News != 1 || st.Gets != 2 || st.Puts != 1 {
		t.Errorf("output stats = %+v, want News=1 Gets=2 Puts=1", st)
	}
}

// TestPrepareImageScratchSteadyStateAllocs: once warm, the scratch path
// allocates nothing beyond its output tensor's header — the random
// source is reseeded, the window decode's decoder is pooled, and the
// tensor's data comes back through the output set.
func TestPrepareImageScratchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	store := imageStore(t, 1)
	cfg := DefaultImageConfig()
	obj, err := store.Get("img-00000")
	if err != nil {
		t.Fatal(err)
	}
	out := memframe.NewSet()
	s := NewScratchWithOutput(out)
	// Warm the scratch and the output pool.
	for i := 0; i < 3; i++ {
		tensor, err := PrepareImageScratch(obj.Data, cfg, int64(i), s)
		if err != nil {
			t.Fatal(err)
		}
		out.F32.Put(tensor.Data)
	}
	allocs := testing.AllocsPerRun(20, func() {
		tensor, err := PrepareImageScratch(obj.Data, cfg, 5, s)
		if err != nil {
			t.Fatal(err)
		}
		out.F32.Put(tensor.Data)
	})
	if allocs != 1 {
		t.Errorf("steady-state allocs/sample = %.1f, want 1 (the tensor header)", allocs)
	}
}

// TestPrepareAudioScratchSteadyStateAllocs is the audio equivalent
// (throwaway working set ≈93 allocs/sample; reused measures exactly 1,
// the spectrogram header, plain and under -race alike).
func TestPrepareAudioScratchSteadyStateAllocs(t *testing.T) {
	store := audioStore(t, 1)
	cfg := DefaultAudioConfig()
	obj, err := store.Get("aud-00000")
	if err != nil {
		t.Fatal(err)
	}
	out := memframe.NewSet()
	s := NewScratchWithOutput(out)
	for i := 0; i < 3; i++ {
		sp, err := PrepareAudioScratch(obj.Data, cfg, int64(i), s)
		if err != nil {
			t.Fatal(err)
		}
		out.F64.Put(sp.Data)
	}
	allocs := testing.AllocsPerRun(20, func() {
		sp, err := PrepareAudioScratch(obj.Data, cfg, 5, s)
		if err != nil {
			t.Fatal(err)
		}
		out.F64.Put(sp.Data)
	})
	if allocs != 1 {
		t.Errorf("steady-state allocs/sample = %.1f, want 1 (the spectrogram header)", allocs)
	}
}
