package experiments

import (
	"context"
	"fmt"
	"sync"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/metrics"
	"trainbox/internal/report"
	"trainbox/internal/storage"
	"trainbox/internal/train"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// cacheStudy sweeps the shared decode-cache tier across concurrent
// consumers × byte budget × echo factor, training real (small) jobs on
// one corpus. Per cell it reports the tier's decode count, hit rate,
// and the mean prep-vs-step overlap ratio the jobs ended with — ample
// budgets collapse decodes to one per key regardless of consumer
// count; tight budgets evict and re-decode; data echoing lowers the
// overlap ratio (each prepared epoch feeds more step time) without
// touching decode counts. Its headlines are the 4-consumer ample-budget
// cell's decodes with the tier ("cached decodes"), what 4 independent
// consumers would decode without it ("uncached decodes": consumers ×
// epochs × keys), and their ratio ("amortization").
func cacheStudy(workload.Workload) (Result, error) {
	const (
		items   = 8
		epochs  = 3
		classes = 4
	)
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, items, classes, 7); err != nil {
		return Result{}, err
	}
	keys := store.Keys()
	imgCfg := dataprep.DefaultImageConfig()
	imgCfg.CropW, imgCfg.CropH = 32, 32

	t := report.NewTable("Study — shared decode-cache tier and data echoing (one decode, N consumers)",
		"consumers", "budget", "echo", "decodes", "hit rate", "overlap")
	h := map[string]float64{}

	type cell struct {
		consumers int
		budget    units.Bytes
		label     string
		echo      int
	}
	cells := []cell{
		{1, 64 * units.MB, "64MB", 1},
		{4, 64 * units.MB, "64MB", 1},
		{4, 64 * units.MB, "64MB", 2},
		{4, 24 * units.KB, "24KB", 1},
	}
	for _, cl := range cells {
		c := dscache.New(cl.budget)
		var (
			wg         sync.WaitGroup
			mu         sync.Mutex
			overlapSum float64
			firstErr   error
		)
		for w := 0; w < cl.consumers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: imgCfg}, 2, int64(100+w))
				reg := metrics.NewRegistry()
				cfg := train.Config{
					Replicas: 2, Widths: []int{64, 16, classes}, Epochs: epochs,
					LearningRate: 0.05, PrefetchDepth: 1, Seed: int64(9 + w), Metrics: reg,
				}
				opts := []train.Option{
					train.WithDataset(exec, store, keys),
					train.WithCache(c),
					train.WithFeature(train.BlockFeature),
				}
				if cl.echo > 1 {
					opts = append(opts, train.WithEchoFactor(cl.echo))
				}
				r, err := train.Run(context.Background(), cfg, opts...)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				overlapSum += r.Metrics.Gauges["train.driver.prep_step_overlap"]
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			return Result{}, firstErr
		}
		s := c.Stats()
		var hitRate float64
		if total := s.Hits + s.Misses; total > 0 {
			hitRate = float64(s.Hits) / float64(total)
		}
		t.AddRowf(cl.consumers, cl.label, cl.echo, s.Misses,
			fmt.Sprintf("%.2f", hitRate),
			fmt.Sprintf("%.2f", overlapSum/float64(cl.consumers)))
		if cl.consumers == 4 && cl.budget >= units.MB && cl.echo == 1 {
			h["cached decodes"] = float64(s.Misses)
			h["uncached decodes"] = float64(cl.consumers * epochs * len(keys))
			h["amortization"] = h["uncached decodes"] / h["cached decodes"]
		}
	}
	t.Title += fmt.Sprintf(" — 4 consumers amortize %.0f decodes to %.0f (%.1f×)",
		h["uncached decodes"], h["cached decodes"], h["amortization"])
	return Result{Tables: []*report.Table{t}, Headlines: h}, nil
}
