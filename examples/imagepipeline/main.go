// imagepipeline runs the real image data-preparation library end to end:
// it builds a synthetic JPEG dataset, prepares augmented batches on the
// CPU path and on the FPGA emulator (verifying bit-equality — the
// offload-correctness property). The Figure 5 augmentation study on the
// same library is `trainbox-sim -exp fig5`.
package main

import (
	"fmt"
	"log"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/storage"
)

func main() {
	// 1. Build a labelled synthetic JPEG dataset (the Imagenet stand-in).
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, 24, 10, 7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d JPEGs, %v stored (mean %v/item)\n",
		store.Len(), store.UsedBytes(), store.MeanObjectSize())

	// 2. Prepare one augmented batch on the CPU path.
	cfg := dataprep.DefaultImageConfig()
	reg := metrics.NewRegistry()
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 0, 7).WithMetrics(reg)
	batch, err := exec.PrepareBatch(store, store.Keys(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared %d samples → %dx%dx%d float32 tensors (%d bytes each)\n",
		len(batch), batch[0].Image.C, batch[0].Image.H, batch[0].Image.W, batch[0].Image.Bytes())
	snap := reg.Snapshot()
	for _, stage := range []string{"fetch", "prepare"} {
		prefix := "pipeline.dataprep." + stage + "."
		fmt.Printf("  stage %s: items=%d busy=%v\n", stage, snap.Counters[prefix+"items"],
			time.Duration(snap.Histograms[prefix+"busy_ns"].Sum).Round(time.Microsecond))
	}

	// 3. Offload-correctness: the FPGA emulator must match bit-for-bit.
	emu := fpga.NewImageEmulator(cfg)
	mismatches := 0
	for _, key := range store.Keys() {
		obj, err := store.Get(key)
		if err != nil {
			log.Fatal(err)
		}
		seed := dataprep.SampleSeed(7, key, 0)
		cpuOut := dataprep.ImagePreparer{Config: cfg}.Prepare(obj, seed, nil)
		devOut := emu.Prepare(obj, seed, nil)
		for i := range cpuOut.Image.Data {
			if cpuOut.Image.Data[i] != devOut.Image.Data[i] {
				mismatches++
				break
			}
		}
	}
	fmt.Printf("CPU vs FPGA-emulator bit-equality: %d mismatches across %d samples\n",
		mismatches, store.Len())
	if mismatches > 0 {
		log.Fatal("the FPGA emulator must prepare every sample bit for bit like the CPU path")
	}
}
