package dataprep

import (
	"math"
	"testing"

	"trainbox/internal/imgproc"
	"trainbox/internal/storage"
)

func imageStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	s := storage.NewStore(storage.DefaultSSDSpec())
	if err := BuildImageDataset(s, n, 10, 1); err != nil {
		t.Fatal(err)
	}
	return s
}

func audioStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	s := storage.NewStore(storage.DefaultSSDSpec())
	if err := BuildAudioDataset(s, n, 10, 1); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildImageDataset(t *testing.T) {
	s := imageStore(t, 12)
	if s.Len() != 12 {
		t.Fatalf("Len = %d", s.Len())
	}
	obj, err := s.Get("img-00003")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Label != 3 {
		t.Errorf("label = %d, want 3", obj.Label)
	}
	if err := imgproc.DecodeJPEGInto(&imgproc.Image{}, obj.Data); err != nil {
		t.Errorf("stored object is not valid JPEG: %v", err)
	}
	if err := BuildImageDataset(s, 0, 10, 1); err == nil {
		t.Error("zero-size dataset accepted")
	}
}

func TestBuildAudioDataset(t *testing.T) {
	s := audioStore(t, 4)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.MeanObjectSize() < 200_000 {
		t.Errorf("mean audio object = %v, want ≈223 KB", s.MeanObjectSize())
	}
	if err := BuildAudioDataset(s, 3, 0, 1); err == nil {
		t.Error("zero classes accepted")
	}
}

func TestPrepareImageShapes(t *testing.T) {
	s := imageStore(t, 1)
	obj, _ := s.Get("img-00000")
	cfg := DefaultImageConfig()
	ten, err := PrepareImageScratch(obj.Data, cfg, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ten.C != 3 || ten.H != 224 || ten.W != 224 {
		t.Errorf("tensor shape %dx%dx%d", ten.C, ten.H, ten.W)
	}
	if ten.Bytes() != 602112 {
		t.Errorf("tensor bytes = %d", ten.Bytes())
	}
}

func TestPrepareImageDeterministicPerSeed(t *testing.T) {
	s := imageStore(t, 1)
	obj, _ := s.Get("img-00000")
	cfg := DefaultImageConfig()
	a, err := PrepareImageScratch(obj.Data, cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrepareImageScratch(obj.Data, cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different tensors")
		}
	}
	c, err := PrepareImageScratch(obj.Data, cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical augmented tensors")
	}
}

func TestPrepareImageWithoutAugmentIsSeedIndependent(t *testing.T) {
	s := imageStore(t, 1)
	obj, _ := s.Get("img-00000")
	cfg := DefaultImageConfig()
	cfg.Augment = false
	a, _ := PrepareImageScratch(obj.Data, cfg, 1, nil)
	b, _ := PrepareImageScratch(obj.Data, cfg, 999, nil)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("non-augmented pipeline depends on seed")
		}
	}
}

func TestPrepareImageRejectsGarbage(t *testing.T) {
	if _, err := PrepareImageScratch([]byte("junk"), DefaultImageConfig(), 1, nil); err == nil {
		t.Error("garbage JPEG accepted")
	}
}

func TestPrepareAudioShapes(t *testing.T) {
	s := audioStore(t, 1)
	obj, _ := s.Get("aud-00000")
	cfg := DefaultAudioConfig()
	mel, err := PrepareAudioScratch(obj.Data, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mel.Bins != cfg.Mel.NumMels {
		t.Errorf("bins = %d, want %d", mel.Bins, cfg.Mel.NumMels)
	}
	if mel.Frames < 600 { // ~6.96 s at 10 ms hop ≈ 694 frames
		t.Errorf("frames = %d, want ≈694", mel.Frames)
	}
	// Normalized output: mean ≈ 0.
	var mean float64
	for _, v := range mel.Data {
		mean += v
	}
	mean /= float64(len(mel.Data))
	if math.Abs(mean) > 1e-9 {
		t.Errorf("normalized mean = %v", mean)
	}
}

func TestPrepareAudioDeterministicPerSeed(t *testing.T) {
	s := audioStore(t, 1)
	obj, _ := s.Get("aud-00000")
	cfg := DefaultAudioConfig()
	a, _ := PrepareAudioScratch(obj.Data, cfg, 5, nil)
	b, _ := PrepareAudioScratch(obj.Data, cfg, 5, nil)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different spectrograms")
		}
	}
}

func TestPrepareAudioRejectsOddPCM(t *testing.T) {
	if _, err := PrepareAudioScratch([]byte{1, 2, 3}, DefaultAudioConfig(), 1, nil); err == nil {
		t.Error("odd PCM accepted")
	}
}

func TestSampleSeedStableAndDistinct(t *testing.T) {
	a := SampleSeed(1, "img-00001", 0)
	if a != SampleSeed(1, "img-00001", 0) {
		t.Error("SampleSeed not deterministic")
	}
	distinct := map[int64]bool{a: true}
	for _, v := range []int64{
		SampleSeed(1, "img-00001", 1),
		SampleSeed(1, "img-00002", 0),
		SampleSeed(2, "img-00001", 0),
	} {
		if distinct[v] {
			t.Error("SampleSeed collision across distinct inputs")
		}
		distinct[v] = true
	}
}

func TestExecutorPrepareBatchOrderAndParallelism(t *testing.T) {
	s := imageStore(t, 16)
	keys := s.Keys()
	serial := NewExecutor(ImagePreparer{Config: DefaultImageConfig()}, 1, 1)
	parallel := NewExecutor(ImagePreparer{Config: DefaultImageConfig()}, 8, 1)
	a, err := serial.PrepareBatch(s, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.PrepareBatch(s, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 16 || len(b) != 16 {
		t.Fatal("batch size wrong")
	}
	for i := range a {
		if a[i].Key != keys[i] || b[i].Key != keys[i] {
			t.Fatal("batch order not preserved")
		}
		for j := range a[i].Image.Data {
			if a[i].Image.Data[j] != b[i].Image.Data[j] {
				t.Fatal("parallel executor diverges from serial")
			}
		}
	}
}

func TestExecutorEpochChangesAugmentation(t *testing.T) {
	s := imageStore(t, 2)
	e := NewExecutor(ImagePreparer{Config: DefaultImageConfig()}, 2, 1)
	a, _ := e.PrepareBatch(s, s.Keys(), 0)
	b, _ := e.PrepareBatch(s, s.Keys(), 1)
	same := true
	for j := range a[0].Image.Data {
		if a[0].Image.Data[j] != b[0].Image.Data[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("epoch 0 and 1 produced identical augmentations")
	}
}

func TestExecutorPropagatesMissingKey(t *testing.T) {
	s := imageStore(t, 2)
	e := NewExecutor(ImagePreparer{Config: DefaultImageConfig()}, 2, 1)
	if _, err := e.PrepareBatch(s, []string{"img-00000", "missing"}, 0); err == nil {
		t.Error("missing key accepted")
	}
}

func TestAudioExecutorEndToEnd(t *testing.T) {
	s := audioStore(t, 3)
	e := NewExecutor(AudioPreparer{Config: DefaultAudioConfig()}, 3, 7)
	out, err := e.PrepareBatch(s, s.Keys(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out {
		if p.Audio == nil || p.Image != nil {
			t.Fatal("audio batch produced wrong sample kind")
		}
	}
}

func TestProfileMeasuresThroughput(t *testing.T) {
	s := imageStore(t, 4)
	e := NewExecutor(ImagePreparer{Config: DefaultImageConfig()}, 4, 1)
	res, err := e.Profile(s, s.Keys(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 8 || res.SamplesPerSec <= 0 || res.Workers != 4 {
		t.Errorf("profile = %+v", res)
	}
	if _, err := e.Profile(s, nil, 1); err == nil {
		t.Error("empty key profile accepted")
	}
	// No samples prepared means no per-sample time: an error, not a
	// division by zero.
	for _, n := range []int{0, -3} {
		if _, err := e.Profile(s, s.Keys(), n); err == nil {
			t.Errorf("Profile with %d samples accepted", n)
		}
	}
}
