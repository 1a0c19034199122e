package experiments

import (
	"fmt"
	"math/rand"

	"trainbox/internal/dataprep"
	"trainbox/internal/imgproc"
	"trainbox/internal/nn"
	"trainbox/internal/report"
	"trainbox/internal/storage"
	"trainbox/internal/workload"
)

// fig5 trains two identically initialized networks on the same stored
// JPEGs — one arm preparing data with on-line augmentation (random crop
// / mirror / Gaussian noise) each epoch, one without — and evaluates
// both on a held-out set always prepared with input variation, the
// distribution shift augmentation exists to cover. It reproduces
// Figure 5's shape: the augmented model reaches markedly higher
// held-out accuracy. Its headlines are both arms' last-epoch held-out
// accuracies; the paper reports a 29.1-point gap on ResNet-50/Imagenet.
func fig5(workload.Workload) (Result, error) {
	const (
		imageSize     = 64 // stored synthetic image edge
		cropSize      = 32 // model input edge
		classes       = 3
		trainPerClass = 24
		testPerClass  = 24
		epochs        = 30
		poolBlock     = 2  // mean-pool block for the MLP features
		hidden        = 64 // hidden layer width
		learningRate  = 0.1
		noiseStd      = 8 // augmentation and test-time noise (8-bit counts)
		seed          = 11
	)
	store := storage.NewStore(storage.DefaultSSDSpec())
	synth := imgproc.SynthConfig{Size: imageSize, Quality: 90}
	nTrain := classes * trainPerClass
	nTest := classes * testPerClass
	for i := 0; i < nTrain+nTest; i++ {
		// Stripe-frequency classes: no crop-invariant shortcut exists, so
		// augmentation's value (phase/orientation coverage) is visible.
		img := imgproc.SynthesizeStriped(synth, seed+int64(i), i%classes)
		data, err := imgproc.EncodeJPEG(img, synth.Quality)
		if err != nil {
			return Result{}, err
		}
		if err := store.Put(storage.Object{
			Key: fmt.Sprintf("f5-%05d", i), Label: i % classes, Data: data,
		}); err != nil {
			return Result{}, err
		}
	}
	keys := store.Keys()
	trainKeys, testKeys := keys[:nTrain], keys[nTrain:]

	augCfg := dataprep.ImageConfig{
		CropW: cropSize, CropH: cropSize,
		MirrorProb: 0.5, NoiseStd: noiseStd, Augment: true,
	}
	plainCfg := augCfg
	plainCfg.Augment = false

	// Held-out set: prepared once with input variation (random crop,
	// mirror, noise) — the unseen-data distribution of Figure 5.
	testExec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: augCfg}, 0, seed+999)
	testBatch, err := testExec.PrepareBatch(store, testKeys, 0)
	if err != nil {
		return Result{}, err
	}
	testSamples := toSamples(testBatch, poolBlock)

	// Mean-pooled luminance only: the striped dataset is grayscale.
	featDim := (cropSize / poolBlock) * (cropSize / poolBlock)
	netWith := nn.NewMLP([]int{featDim, hidden, classes}, rand.New(rand.NewSource(seed)))
	netWithout := nn.NewMLP([]int{featDim, hidden, classes}, rand.New(rand.NewSource(seed)))

	augExec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: augCfg}, 0, seed)
	plainExec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: plainCfg}, 0, seed)

	t := report.NewTable("Figure 5 — held-out accuracy with and without augmentation",
		"epoch", "with augmentation", "w/o augmentation")
	var with, without float64
	for epoch := 1; epoch <= epochs; epoch++ {
		augBatch, err := augExec.PrepareBatch(store, trainKeys, epoch)
		if err != nil {
			return Result{}, err
		}
		plainBatch, err := plainExec.PrepareBatch(store, trainKeys, epoch)
		if err != nil {
			return Result{}, err
		}
		netWith.TrainEpoch(toSamples(augBatch, poolBlock), 16, learningRate)
		netWithout.TrainEpoch(toSamples(plainBatch, poolBlock), 16, learningRate)
		with, without = netWith.Accuracy(testSamples), netWithout.Accuracy(testSamples)
		t.AddRowf(epoch, with, without)
	}
	return Result{Tables: []*report.Table{t},
		Headlines: map[string]float64{"final accuracy with": with, "final accuracy without": without}}, nil
}

// toSamples mean-pools the prepared tensors' first channel into compact
// spatially precise MLP features.
func toSamples(batch []dataprep.Prepared, block int) []nn.Sample {
	out := make([]nn.Sample, 0, len(batch))
	for _, p := range batch {
		ten := p.Image
		side := ten.W / block
		feat := make([]float64, side*side)
		for by := 0; by < side; by++ {
			for bx := 0; bx < side; bx++ {
				var sum float64
				for y := by * block; y < (by+1)*block; y++ {
					for x := bx * block; x < (bx+1)*block; x++ {
						sum += float64(ten.At(0, y, x))
					}
				}
				feat[by*side+bx] = sum / float64(block*block)
			}
		}
		out = append(out, nn.Sample{X: feat, Label: p.Label})
	}
	return out
}
