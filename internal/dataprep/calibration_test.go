package dataprep

import (
	"sort"
	"testing"

	"trainbox/internal/storage"
	"trainbox/internal/workload"
)

// TestRealKernelRatioMatchesCalibration cross-checks the measured Go
// kernels against the model constants. Absolute speeds differ (Go vs
// DALI-class C/CUDA — documented in DESIGN.md) and so does the size of
// the audio/image cost ratio: the calibrated one is ≈6.9 (TF-SR 5.45 ms
// vs ResNet-50 0.788 ms), the measured one moves with kernel work on
// either side (≈5.9 before the audio front-end ran at its operation
// count, ≈1.1 after it, ≈1.95 once the image kernels ran at theirs,
// ≈2.4 since decode reconstructs only the coefficients a block carries
// and noise is applied straight from the stream's words: 1.84–2.82,
// median 2.36, over 12 runs of this test on a 2-core box, single
// rounds 0.62–12.0). What stays true is the ordering — preparing an audio
// sample costs more than preparing an image — and that the Go ratio is
// not more than 3× the calibrated one. The measured value is the
// median over paired image/audio rounds and is logged; a shared box
// moves single rounds by ±30 % or more, so the ordering keeps its 10 %
// noise tolerance.
func TestRealKernelRatioMatchesCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel profiling in -short mode")
	}
	if raceEnabled {
		t.Skip("kernel cost ratios are meaningless under race-detector instrumentation")
	}
	imgStore := storage.NewStore(storage.DefaultSSDSpec())
	if err := BuildImageDataset(imgStore, 6, 3, 1); err != nil {
		t.Fatal(err)
	}
	audStore := storage.NewStore(storage.DefaultSSDSpec())
	if err := BuildAudioDataset(audStore, 3, 3, 1); err != nil {
		t.Fatal(err)
	}
	imgExec := NewExecutor(ImagePreparer{Config: DefaultImageConfig()}, 1, 1)
	audExec := NewExecutor(AudioPreparer{Config: DefaultAudioConfig()}, 1, 1)
	const rounds = 25
	ratios := make([]float64, rounds)
	for r := range ratios {
		imgRes, err := imgExec.Profile(imgStore, imgStore.Keys(), 6)
		if err != nil {
			t.Fatal(err)
		}
		audRes, err := audExec.Profile(audStore, audStore.Keys(), 3)
		if err != nil {
			t.Fatal(err)
		}
		ratios[r] = float64(audRes.PerSample) / float64(imgRes.PerSample)
	}
	sort.Float64s(ratios)
	measured := ratios[rounds/2]

	img, _ := workload.ByName("Resnet-50")
	aud, _ := workload.ByName("TF-SR")
	calibrated := aud.Prep.TotalCPUSeconds() / img.Prep.TotalCPUSeconds()

	const noise = 0.10
	if measured <= 1-noise {
		t.Errorf("measured audio/image cost ratio = %.2f (rounds %.2f…%.2f): audio preparation should cost more than image preparation",
			measured, ratios[0], ratios[rounds-1])
	}
	if measured > calibrated*3 {
		t.Errorf("measured audio/image cost ratio = %.2f, more than 3× the calibrated %.1f", measured, calibrated)
	}
	t.Logf("audio/image per-sample cost: measured %.2f× (median of %d paired rounds, %.2f…%.2f), calibrated %.1f×",
		measured, rounds, ratios[0], ratios[rounds-1], calibrated)
}
