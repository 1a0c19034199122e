package dataprep

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
)

// pinSeeds are the per-sample seeds the augmented digests run over:
// the reductions the random source special-cases (0, multiples of
// 2³¹−1, negatives, the int64 extremes) and a few derived sample seeds.
var pinSeeds = []int64{
	0, -1, 1<<31 - 1, 2 * (1<<31 - 1), math.MinInt64, math.MaxInt64,
	SampleSeed(1, "img-00000", 0), SampleSeed(7, "aud-00003", 2), SampleSeed(-3, "img-00001", 5),
}

// TestPrepareImageAugmentedDigestPinned pins an FNV-64a digest of
// augmented image preparation — random crop, mirror coin and Gaussian
// noise all on — over pinSeeds, through both the encoded path
// (PrepareImageScratch) and the cached-decode path
// (PrepareImageDecoded). Any change to the random sequence a seed
// yields, or to the draws the pipeline makes from it, moves the digest.
// The seed set must land the mirror coin both ways, so both arms of
// the tail are pinned.
func TestPrepareImageAugmentedDigestPinned(t *testing.T) {
	const want = 0x8d0e7e3e635d935f
	store := imageStore(t, 3)
	cfg := DefaultImageConfig()
	unmirrored := cfg
	unmirrored.MirrorProb = 0
	scratch, decoded := fnv.New64a(), fnv.New64a()
	s := NewScratch()
	var img imgproc.Image
	mirrored := 0
	for i, seed := range pinSeeds {
		obj, err := store.Get(keyOf(t, store, i%3, "img"))
		if err != nil {
			t.Fatal(err)
		}
		a, err := PrepareImageScratch(obj.Data, cfg, seed, s)
		if err != nil {
			t.Fatal(err)
		}
		writeF32(scratch, a.Data)
		if err := imgproc.DecodeJPEGInto(&img, obj.Data); err != nil {
			t.Fatal(err)
		}
		b, err := PrepareImageDecoded(&img, cfg, seed, s)
		if err != nil {
			t.Fatal(err)
		}
		writeF32(decoded, b.Data)
		c, err := PrepareImageScratch(obj.Data, unmirrored, seed, s)
		if err != nil {
			t.Fatal(err)
		}
		if !sameF32(a.Data, c.Data) {
			mirrored++
		}
	}
	if mirrored == 0 || mirrored == len(pinSeeds) {
		t.Errorf("%d of %d seeds mirrored: the pin must cover both arms", mirrored, len(pinSeeds))
	}
	if got := scratch.Sum64(); got != want {
		t.Errorf("PrepareImageScratch augmented digest = %#x, want %#x", got, uint64(want))
	}
	if got := decoded.Sum64(); got != want {
		t.Errorf("PrepareImageDecoded augmented digest = %#x, want %#x", got, uint64(want))
	}
}

// TestPrepareAudioAugmentedDigestPinned pins an FNV-64a digest of
// augmented audio preparation — waveform noise, the time mask and the
// frequency mask all on, then normalize — over pinSeeds, through both
// PrepareAudioScratch and PrepareAudioDecoded.
func TestPrepareAudioAugmentedDigestPinned(t *testing.T) {
	const want = 0x7c104f4de143746e
	store := audioStore(t, 3)
	cfg := DefaultAudioConfig()
	if !cfg.Augment || cfg.NoiseStd <= 0 || cfg.TimeMaskWidth <= 0 || cfg.FreqMaskWidth <= 0 {
		t.Fatalf("default audio config %+v does not augment fully", cfg)
	}
	scratch, decoded := fnv.New64a(), fnv.New64a()
	s := NewScratch()
	for i, seed := range pinSeeds {
		obj, err := store.Get(keyOf(t, store, i%3, "aud"))
		if err != nil {
			t.Fatal(err)
		}
		a, err := PrepareAudioScratch(obj.Data, cfg, seed, s)
		if err != nil {
			t.Fatal(err)
		}
		writeF64(scratch, a.Data)
		sig, err := dsp.PCM16Decode(obj.Data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PrepareAudioDecoded(sig, cfg, seed, s)
		if err != nil {
			t.Fatal(err)
		}
		writeF64(decoded, b.Data)
	}
	if got := scratch.Sum64(); got != want {
		t.Errorf("PrepareAudioScratch augmented digest = %#x, want %#x", got, uint64(want))
	}
	if got := decoded.Sum64(); got != want {
		t.Errorf("PrepareAudioDecoded augmented digest = %#x, want %#x", got, uint64(want))
	}
}

func writeF32(h io.Writer, data []float32) {
	var buf [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
}

func writeF64(h io.Writer, data []float64) {
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func sameF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
