package experiments

import (
	"context"
	"fmt"

	"trainbox/internal/dataprep"
	"trainbox/internal/eth"
	"trainbox/internal/fpga"
	"trainbox/internal/nvme"
	"trainbox/internal/preppool"
	"trainbox/internal/report"
	"trainbox/internal/storage"
	"trainbox/internal/units"
)

// DynamicPoolStudy runs the live prep-pool runtime (Section V-D: the
// pool is re-divided as job demands change) with two concurrent image
// jobs whose demands cross over mid-run: "alpha" starts needing three
// pooled FPGAs and "beta" one; halfway through the rates swap and the
// rebalancer migrates leases from alpha to beta at the next epoch
// boundary. Four pooled devices sit behind a 4-port 100GbE fabric, and
// each lease reserves its preparation bandwidth there before it is
// granted. The table records, per epoch and job, the demand, the
// granted leases, and the pooled-vs-in-box split of the samples
// actually prepared, plus the cumulative lease migrations. Both jobs
// close at the end, and the study fails unless that released every
// reservation on the fabric.
func DynamicPoolStudy() (*report.Table, error) {
	const (
		datasetSeed = 7
		epochs      = 6
		devices     = 4
	)
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, 8, 4, datasetSeed); err != nil {
		return nil, err
	}
	ns, err := nvme.LoadStore(store)
	if err != nil {
		return nil, err
	}
	imgCfg := dataprep.DefaultImageConfig()
	imgCfg.CropW, imgCfg.CropH = 32, 32
	net, err := eth.NewNetwork(eth.Link100G, eth.SwitchSpec{Ports: 4})
	if err != nil {
		return nil, err
	}
	handlers := make([]*fpga.P2PHandler, devices)
	for i := range handlers {
		if handlers[i], err = fpga.NewP2PHandler(ns, fpga.NewImageEmulator(imgCfg), 8); err != nil {
			return nil, err
		}
	}
	pool, err := preppool.NewPool(handlers, preppool.WithNetwork(net, 64*units.KB))
	if err != nil {
		return nil, err
	}

	// alpha needs 3 pooled FPGAs at first, beta 1; the rates swap at the
	// halfway epoch.
	high := units.SamplesPerSec(3 * fpga.ImagePrepRate)
	low := units.SamplesPerSec(1 * fpga.ImagePrepRate)
	register := func(name string, rate units.SamplesPerSec, seed int64) (*preppool.Job, error) {
		return pool.Register(preppool.JobSpec{
			Name: name, RequiredRate: rate,
			Exec:        dataprep.NewExecutor(dataprep.ImagePreparer{Config: imgCfg}, 2, seed),
			Store:       store,
			DatasetSeed: seed,
		})
	}
	alpha, err := register("alpha", high, datasetSeed)
	if err != nil {
		return nil, err
	}
	beta, err := register("beta", low, datasetSeed+1)
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Dynamic prep-pool rebalancing (two jobs, demand crossover at epoch 3)",
		"epoch", "job", "required (samples/s)", "leases", "pooled share", "migrations")
	ctx := context.Background()
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch == epochs/2 {
			if err := alpha.SetRequiredRate(low); err != nil {
				return nil, err
			}
			if err := beta.SetRequiredRate(high); err != nil {
				return nil, err
			}
		}
		for _, job := range []*preppool.Job{alpha, beta} {
			if _, err := job.PrepareEpoch(ctx, store.Keys(), epoch); err != nil {
				return nil, err
			}
		}
		for _, st := range pool.Stats() {
			t.AddRowf(epoch, st.Name, float64(st.RequiredRate), st.Leases,
				fmt.Sprintf("%.0f%%", 100*st.PooledShare), pool.Migrations())
		}
	}
	for _, job := range []*preppool.Job{alpha, beta} {
		if err := job.Close(); err != nil {
			return nil, err
		}
	}
	if r := net.Reserved(); r != 0 {
		return nil, fmt.Errorf("experiments: %v of fabric still reserved after both jobs closed", r)
	}
	return t, nil
}
