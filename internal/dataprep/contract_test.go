package dataprep_test

import (
	"math"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/fpga"
	"trainbox/internal/memframe"
	"trainbox/internal/storage"
	"trainbox/internal/units"
)

// TestPreparerContractBitIdentical is the single-method contract in one
// place: each of the five dataprep.Preparer implementations — the CPU
// image and audio preparers, their two cache-backed forms and the FPGA
// emulator — must return exactly the reference kernel's bits whatever
// working set it is handed: none (nil), a Scratch reused across samples,
// or a reused Scratch drawing recycled output buffers.
func TestPreparerContractBitIdentical(t *testing.T) {
	imgCfg := dataprep.DefaultImageConfig()
	audCfg := dataprep.DefaultAudioConfig()

	images := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(images, 3, 3, 1); err != nil {
		t.Fatal(err)
	}
	audio := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildAudioDataset(audio, 2, 2, 1); err != nil {
		t.Fatal(err)
	}

	// reference is the modality's kernel on a throwaway working set.
	imageRef := func(obj storage.Object, seed int64) dataprep.Prepared {
		ten, err := dataprep.PrepareImageScratch(obj.Data, imgCfg, seed, nil)
		return dataprep.Prepared{Image: ten, Err: err}
	}
	audioRef := func(obj storage.Object, seed int64) dataprep.Prepared {
		sp, err := dataprep.PrepareAudioScratch(obj.Data, audCfg, seed, nil)
		return dataprep.Prepared{Audio: sp, Err: err}
	}

	impls := []struct {
		name  string
		prep  dataprep.Preparer
		store *storage.Store
		ref   func(storage.Object, int64) dataprep.Prepared
	}{
		{"cpu-image", dataprep.ImagePreparer{Config: imgCfg}, images, imageRef},
		{"cpu-audio", dataprep.AudioPreparer{Config: audCfg}, audio, audioRef},
		{"cached-image", dscache.ImagePreparer{Cache: dscache.New(64 * units.MB), Config: imgCfg}, images, imageRef},
		{"cached-audio", dscache.AudioPreparer{Cache: dscache.New(64 * units.MB), Config: audCfg}, audio, audioRef},
		{"emulator-image", fpga.NewImageEmulator(imgCfg), images, imageRef},
		{"emulator-audio", &fpga.Emulator{Audio: &audCfg}, audio, audioRef},
	}
	recycled := memframe.NewSet()
	scratches := []struct {
		name    string
		s       *dataprep.Scratch
		recycle bool // outputs come from recycled and go back to it
	}{
		{"nil", nil, false},
		{"pooled", dataprep.NewScratch(), false},
		{"pooled-output", dataprep.NewScratchWithOutput(recycled), true},
	}

	for _, impl := range impls {
		for _, sc := range scratches {
			t.Run(impl.name+"/"+sc.name, func(t *testing.T) {
				for _, key := range impl.store.Keys() {
					obj, err := impl.store.Get(key)
					if err != nil {
						t.Fatal(err)
					}
					for _, seed := range []int64{1, -7, 1 << 40} {
						want := impl.ref(obj, seed)
						got := impl.prep.Prepare(obj, seed, sc.s)
						if want.Err != nil || got.Err != nil {
							t.Fatalf("%s seed %d: errs %v / %v", key, seed, got.Err, want.Err)
						}
						if got.Key != obj.Key || got.Label != obj.Label {
							t.Fatalf("%s: identity %s/%d, want %s/%d", key, got.Key, got.Label, obj.Key, obj.Label)
						}
						requireSameBits(t, key, seed, got, want)
						if !sc.recycle {
							continue
						}
						// Hand the outputs back so the next sample is served
						// from recycled buffers.
						if got.Image != nil {
							recycled.F32.Put(got.Image.Data)
						}
						if got.Audio != nil {
							recycled.F64.Put(got.Audio.Data)
						}
					}
				}
			})
		}
	}
}

// requireSameBits fails unless got carries exactly want's payload.
func requireSameBits(t *testing.T, key string, seed int64, got, want dataprep.Prepared) {
	t.Helper()
	f32 := func(what string, g, w []float32) {
		if len(g) != len(w) {
			t.Fatalf("%s seed %d %s: %d elements, want %d", key, seed, what, len(g), len(w))
		}
		for i := range w {
			if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
				t.Fatalf("%s seed %d %s[%d] = %v, want %v (bit-exact)", key, seed, what, i, g[i], w[i])
			}
		}
	}
	switch {
	case want.Image != nil:
		if got.Image == nil {
			t.Fatalf("%s seed %d: no image", key, seed)
		}
		f32("image", got.Image.Data, want.Image.Data)
	case want.Audio != nil:
		if got.Audio == nil || len(got.Audio.Data) != len(want.Audio.Data) {
			t.Fatalf("%s seed %d: audio shape mismatch", key, seed)
		}
		for i, w := range want.Audio.Data {
			if math.Float64bits(got.Audio.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s seed %d audio[%d] = %v, want %v (bit-exact)", key, seed, i, got.Audio.Data[i], w)
			}
		}
	default:
		t.Fatalf("%s seed %d: reference carries no payload", key, seed)
	}
}
