package experiments

import (
	"runtime"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/report"
	"trainbox/internal/storage"
	"trainbox/internal/workload"
)

// prof profiles the real Go data-preparation kernels on this machine —
// the reproduction's analogue of the paper's prototype profiling step
// (Section VI-A). It reports per-sample cost and throughput of the image
// and audio pipelines at one worker and at GOMAXPROCS, each executor's
// stage counters, and the calibrated per-sample constants the system
// model uses instead.
func prof(workload.Workload) (Result, error) {
	const (
		items   = 32  // image dataset items; the audio set has items/4+1
		samples = 128 // minimum image samples per measurement; audio samples/4+1
	)
	imgStore := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(imgStore, items, 10, 1); err != nil {
		return Result{}, err
	}
	audStore := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildAudioDataset(audStore, items/4+1, 10, 1); err != nil {
		return Result{}, err
	}

	t := report.NewTable("Measured Go kernel throughput (this machine)",
		"pipeline", "workers", "samples/s", "per sample")
	st := report.NewTable("Pipeline stage counters (cumulative per executor)",
		"pipeline", "workers", "stage", "in", "out", "busy")
	for _, p := range []struct {
		name, label string
		prep        dataprep.Preparer
		store       *storage.Store
		samples     int
	}{
		{"image", "image (JPEG→224³ tensor)", dataprep.ImagePreparer{Config: dataprep.DefaultImageConfig()}, imgStore, samples},
		{"audio", "audio (PCM→log-Mel)", dataprep.AudioPreparer{Config: dataprep.DefaultAudioConfig()}, audStore, samples/4 + 1},
	} {
		for _, wk := range []int{1, runtime.GOMAXPROCS(0)} {
			e := dataprep.NewExecutor(p.prep, wk, 1)
			res, err := e.Profile(p.store, p.store.Keys(), p.samples)
			if err != nil {
				return Result{}, err
			}
			t.AddRowf(p.label, wk, res.SamplesPerSec, res.PerSample.String())
			for _, s := range e.Stats() {
				st.AddRowf(p.name, wk, s.Name, s.ItemsIn, s.ItemsOut, s.Busy.Round(time.Millisecond).String())
			}
		}
	}

	cal := report.NewTable("Calibrated per-sample model constants (DALI-class kernels) — "+
		"the system model uses these, representing optimized C/CUDA kernels, not the Go measurements above; see DESIGN.md",
		"workload", "type", "cpu ms/sample", "stored KB", "tensor KB")
	for _, w := range workload.Workloads() {
		cal.AddRowf(w.Name, w.Type.String(),
			1e3*w.Prep.TotalCPUSeconds(),
			float64(w.Prep.StoredBytes)/1024,
			float64(w.Prep.TensorBytes)/1024)
	}
	return tables(t, st, cal), nil
}
