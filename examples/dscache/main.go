// dscache demonstrates the shared decode-cache tier and data echoing:
// four training jobs consume one corpus through one cache, so each
// JPEG is decoded once (single-flight) and every job runs only its own
// seeded augmentation — bit-identically to the uncached path. A
// tight-budget run shows CLOCK eviction re-decoding, and an echoed run
// shows prep-bound epochs feeding extra optimizer steps from the same
// prepared batches.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/experiments"
	"trainbox/internal/metrics"
	"trainbox/internal/storage"
	"trainbox/internal/train"
	"trainbox/internal/units"
)

func main() {
	demo := flag.Bool("demo", false, "short CI budget: skip the full study sweep")
	flag.Parse()

	const (
		items   = 8
		classes = 4
		epochs  = 3
		jobs    = 4
	)
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, items, classes, 7); err != nil {
		log.Fatal(err)
	}
	keys := store.Keys()
	cfg := dataprep.DefaultImageConfig()
	cfg.CropW, cfg.CropH = 32, 32
	trainCfg := func(seed int64, reg *metrics.Registry) train.Config {
		return train.Config{
			Replicas: 2, Widths: []int{64, 16, classes}, Epochs: epochs,
			LearningRate: 0.05, PrefetchDepth: 1, Seed: seed, Metrics: reg,
		}
	}

	// Oracle: job 0 without the cache. The cached run must match it
	// byte for byte — the tier caches the decode, and augmentation is
	// seeded after it.
	exec0 := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 100)
	oracle, err := train.Run(context.Background(), trainCfg(9, nil),
		train.WithDataset(exec0, store, keys), train.WithFeature(train.BlockFeature))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d jobs × %d epochs over %d objects through one shared tier:\n\n", jobs, epochs, items)
	c := dscache.New(64 * units.MB)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		losses = make([]float64, jobs)
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, int64(100+w))
			r, err := train.Run(context.Background(), trainCfg(int64(9+w), nil),
				train.WithDataset(exec, store, keys),
				train.WithCache(c),
				train.WithFeature(train.BlockFeature))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				log.Fatal(err)
			}
			losses[w] = r.FinalLoss()
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	fmt.Printf("  decodes (misses) %d — one per object, not %d (jobs × epochs × objects)\n",
		s.Misses, jobs*epochs*items)
	fmt.Printf("  hits %d, single-flight waits %d, resident %s in %d entries\n",
		s.Hits, s.SingleflightWaits, units.Bytes(s.BytesResident), s.Entries)
	fmt.Printf("  job 0 final loss %.9f, uncached oracle %.9f (bit-identical: %v)\n\n",
		losses[0], oracle.FinalLoss(), losses[0] == oracle.FinalLoss())

	// A budget far below the working set forces CLOCK eviction: the
	// tier keeps deduplicating concurrent decodes but re-decodes what
	// it had to drop.
	tight := dscache.New(24 * units.KB)
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 100)
	if _, err := train.Run(context.Background(), trainCfg(9, nil),
		train.WithDataset(exec, store, keys),
		train.WithCache(tight), train.WithFeature(train.BlockFeature)); err != nil {
		log.Fatal(err)
	}
	ts := tight.Stats()
	fmt.Printf("under a 24 KB budget the same job decodes %d times (evictions %d) — the budget is the knob\n\n",
		ts.Misses, ts.Evictions)

	// Data echoing: replay each prepared batch for extra optimizer
	// steps when preparation is the bottleneck.
	reg := metrics.NewRegistry()
	execEcho := dataprep.NewExecutor(dataprep.ImagePreparer{Config: cfg}, 2, 100)
	r, err := train.Run(context.Background(), trainCfg(9, reg),
		train.WithDataset(execEcho, store, keys),
		train.WithEchoFactor(2), train.WithFeature(train.BlockFeature))
	if err != nil {
		log.Fatal(err)
	}
	snap := reg.Snapshot()
	fmt.Printf("echo factor 2: %d optimizer steps from %d prepared epochs (%d replays), %d samples seen\n\n",
		len(r.Steps), epochs, snap.Counters["train.driver.echo_replays"], r.SamplesProcessed)

	if *demo {
		return
	}
	res, err := experiments.CacheStudy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Table.String())
	fmt.Printf("headline: 4 consumers amortize %d decodes to %d (%.1f×)\n",
		res.UncachedDecodes, res.CachedDecodes, res.Amortization)
}
