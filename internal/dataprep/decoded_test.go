package dataprep

import (
	"testing"

	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
)

// TestPrepareImageDecodedBitIdentical: splitting decode off and running
// the tail on the decoded image yields byte-for-byte the tensor the
// fused path produces, across seeds and with a shared read-only source.
func TestPrepareImageDecodedBitIdentical(t *testing.T) {
	cfg := imgproc.DefaultSynthConfig()
	data, err := imgproc.EncodeJPEG(imgproc.SynthesizeImage(cfg, 3, 2), cfg.Quality)
	if err != nil {
		t.Fatal(err)
	}
	decoded := &imgproc.Image{}
	if err := imgproc.DecodeJPEGInto(decoded, data); err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultImageConfig()
	for seed := int64(0); seed < 8; seed++ {
		want, err := PrepareImageScratch(data, pcfg, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PrepareImageDecoded(decoded, pcfg, seed, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(want.Data) {
			t.Fatalf("seed %d: %d cells, want %d", seed, len(got.Data), len(want.Data))
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("seed %d: cell %d = %v, want %v", seed, i, got.Data[i], want.Data[i])
			}
		}
	}
	// The shared source must come through untouched (read-only
	// contract): re-decode and compare.
	fresh := &imgproc.Image{}
	if err := imgproc.DecodeJPEGInto(fresh, data); err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Pix {
		if decoded.Pix[i] != fresh.Pix[i] {
			t.Fatalf("PrepareImageDecoded mutated its source at pixel %d", i)
		}
	}
}

// TestPrepareAudioDecodedBitIdentical: same split oracle for audio —
// the tail on a decoded signal matches the fused path, and the shared
// signal is never mutated (augmentation runs on a scratch copy).
func TestPrepareAudioDecodedBitIdentical(t *testing.T) {
	sig, err := dsp.SynthesizeAudio(dsp.DefaultSynthConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	pcm := dsp.PCM16Encode(sig)
	decoded, err := dsp.PCM16Decode(pcm)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]float64(nil), decoded...)
	acfg := DefaultAudioConfig()
	s := NewScratch() // reuse one scratch across seeds, like a worker would
	for seed := int64(0); seed < 8; seed++ {
		want, err := PrepareAudioScratch(pcm, acfg, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PrepareAudioDecoded(decoded, acfg, seed, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(want.Data) {
			t.Fatalf("seed %d: %d cells, want %d", seed, len(got.Data), len(want.Data))
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("seed %d: cell %d = %v, want %v", seed, i, got.Data[i], want.Data[i])
			}
		}
	}
	for i := range orig {
		if decoded[i] != orig[i] {
			t.Fatalf("PrepareAudioDecoded mutated the shared signal at sample %d", i)
		}
	}
}
