// Command trainbox-train runs the functional end-to-end training stack
// (Figure 1 as working code): synthetic JPEGs stream through the
// data-preparation library with next-batch prefetching into data-parallel
// replicas synchronized by the real ring all-reduce.
//
//	trainbox-train -replicas 4 -epochs 10 -items 32
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"trainbox/internal/dataprep"
	"trainbox/internal/storage"
	"trainbox/internal/train"
)

func main() {
	replicas := flag.Int("replicas", 4, "data-parallel model replicas")
	epochs := flag.Int("epochs", 10, "training epochs")
	items := flag.Int("items", 32, "synthetic dataset items")
	lr := flag.Float64("lr", 0.08, "learning rate")
	momentum := flag.Float64("momentum", 0.9, "SGD momentum")
	depth := flag.Int("prefetch", 2, "next-batch prefetch depth")
	seed := flag.Int64("seed", 11, "run seed")
	flag.Parse()

	if err := run(*replicas, *epochs, *items, *depth, *lr, *momentum, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "trainbox-train:", err)
		os.Exit(1)
	}
}

func run(replicas, epochs, items, depth int, lr, momentum float64, seed int64) error {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, items, 4, seed); err != nil {
		return err
	}
	cfg := dataprep.DefaultImageConfig()
	cfg.CropW, cfg.CropH = 32, 32
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 0, seed)

	tc := train.Config{
		Replicas: replicas, Widths: []int{64, 24, 4},
		Epochs: epochs, LearningRate: lr, Momentum: momentum,
		PrefetchDepth: depth, Seed: seed,
	}
	fmt.Printf("training %d replicas × %d epochs over %d items (prefetch %d)\n",
		replicas, epochs, items, depth)
	res, err := train.Run(context.Background(), tc,
		train.WithDataset(exec, store, store.Keys()),
		train.WithFeature(train.BlockFeature))
	if err != nil {
		return err
	}
	fmt.Printf("loss %.3f → %.3f over %d steps; %d samples in %v (%.0f samples/s)\n",
		res.Steps[0].MeanLoss, res.FinalLoss(), len(res.Steps),
		res.SamplesProcessed, res.Elapsed.Round(1e6),
		float64(res.SamplesProcessed)/res.Elapsed.Seconds())
	fmt.Printf("replica divergence: %.2e\n", train.MaxReplicaDivergence(res.Replicas))
	return nil
}
