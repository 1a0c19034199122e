package dataprep

import (
	"testing"

	"trainbox/internal/metrics"
	"trainbox/internal/storage"
)

// TestExecutorMetrics: a metered executor must report sample counts,
// per-sample latency, and pipeline stage series.
func TestExecutorMetrics(t *testing.T) {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := BuildImageDataset(store, 6, 3, 7); err != nil {
		t.Fatal(err)
	}
	keys := store.Keys()
	cfg := DefaultImageConfig()
	cfg.CropW, cfg.CropH = 32, 32

	reg := metrics.NewRegistry()
	store.WithMetrics(reg)
	exec := NewExecutor(ImagePreparer{Config: cfg}, 2, 7).WithMetrics(reg)

	const epochs = 3
	for epoch := 0; epoch < epochs; epoch++ {
		if _, err := exec.PrepareBatch(store, keys, epoch); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	wantSamples := int64(epochs * len(keys))
	if got := snap.Counters["dataprep.executor.samples_prepared"]; got != wantSamples {
		t.Errorf("dataprep.executor.samples_prepared = %d, want %d", got, wantSamples)
	}
	if got := snap.Counters["dataprep.executor.batches_prepared"]; got != epochs {
		t.Errorf("dataprep.executor.batches_prepared = %d, want %d", got, epochs)
	}
	perSample := snap.Histograms["dataprep.executor.ns_per_sample"]
	if perSample.Count != epochs || perSample.Mean <= 0 {
		t.Errorf("ns_per_sample = %+v, want %d positive batch observations", perSample, epochs)
	}
	if got := snap.Counters["pipeline.dataprep.prepare.items"]; got != wantSamples {
		t.Errorf("pipeline prepare items = %d, want %d", got, wantSamples)
	}
	if snap.Counters["storage.nvme.bytes_read"] != int64(store.UsedBytes())*epochs {
		t.Errorf("storage bytes_read = %d, want %d", snap.Counters["storage.nvme.bytes_read"], int64(store.UsedBytes())*epochs)
	}
	if got := snap.Counters["pipeline.dataprep.fetch.items"]; got != wantSamples {
		t.Errorf("pipeline fetch items = %d, want %d", got, wantSamples)
	}
}

// TestUnmeteredExecutorPaysNothing: without WithMetrics everything still
// works and no series exist anywhere to leak into.
func TestUnmeteredExecutorPaysNothing(t *testing.T) {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := BuildImageDataset(store, 4, 2, 7); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultImageConfig()
	cfg.CropW, cfg.CropH = 32, 32
	exec := NewExecutor(ImagePreparer{Config: cfg}, 2, 7)
	if _, err := exec.PrepareBatch(store, store.Keys(), 0); err != nil {
		t.Fatal(err)
	}
}
