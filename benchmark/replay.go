package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"trainbox/internal/collective"
	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
	"trainbox/internal/jpegdec"
	"trainbox/internal/memframe"
	"trainbox/internal/nn"
	"trainbox/internal/nvme"
	"trainbox/internal/storage"
	"trainbox/internal/units"
)

// replayEpochs is how many epochs of the key set the serial kernel
// replay walks.
const replayEpochs = 2

type sampleID struct {
	key   string
	epoch int
}

// checksum folds a prepared sample's payload bits into one word
// (FNV-1a over 32- or 64-bit words): equal checksums for the same
// (seed, key, epoch) are what license using the replay's shares for the
// live prepare path.
func checksum(p dataprep.Prepared) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	if p.Image != nil {
		for _, v := range p.Image.Data {
			h = (h ^ uint64(math.Float32bits(v))) * prime
		}
	}
	if p.Audio != nil {
		for _, v := range p.Audio.Data {
			h = (h ^ math.Float64bits(v)) * prime
		}
	}
	return h
}

// replayInput is everything the serial replay needs: the generated
// inputs and the workload's configuration, nothing built by the
// workload's own prepare path.
type replayInput struct {
	job      string
	audio    bool
	store    *storage.Store
	client   *nvme.Client // non-nil: read through NVMe queue pairs instead
	keys     []string
	seed     int64
	imgCfg   dataprep.ImageConfig
	audCfg   dataprep.AudioConfig
	widths   []int
	replicas int
}

type replayResult struct {
	checksums map[sampleID]uint64
	byName    map[string][]float64 // span durations, ns
	coverage  float64              // Σ spans ÷ replay wall
}

func (r replayResult) nsPerSample(name string) float64 {
	return ratio(sum(r.byName[name]), float64(len(r.byName[name])))
}

// kernelNsPerSample is the bare read + prepare cost of one sample.
func (r replayResult) kernelNsPerSample() float64 {
	return r.nsPerSample("storage.read") + r.nsPerSample("nvme.read") + r.nsPerSample("dataprep.prepare")
}

// fill writes the replay's per-layer rows into the report.
func (r replayResult) fill(rep *report) {
	for metric, spanName := range map[string]string{
		"storage.read_ns_per_sample":          "storage.read",
		"nvme.read_ns_per_sample":             "nvme.read",
		"imgproc.decode_ns_per_sample":        "imgproc.decode",
		"imgproc.crop_ns_per_sample":          "imgproc.crop",
		"imgproc.mirror_ns_per_sample":        "imgproc.mirror",
		"imgproc.noise_ns_per_sample":         "imgproc.noise",
		"imgproc.cast_ns_per_sample":          "imgproc.cast",
		"dsp.pcm_decode_ns_per_sample":        "dsp.pcm_decode",
		"dsp.logmel_ns_per_sample":            "dsp.logmel",
		"dsp.specaug_norm_ns_per_sample":      "dsp.specaug_norm",
		"dataprep.prepare_ns_per_sample":      "dataprep.prepare",
		"dataprep.augment_cast_ns_per_sample": "dataprep.augment_cast",
	} {
		rep.Metrics[metric] = single(r.nsPerSample(spanName), "ns")
	}
	rep.Metrics["bench.replay_layer_sum_share"] = single(r.coverage, "share")
	rep.check("replay spans sum to wall", math.Abs(r.coverage-1) <= 0.02, "Σ spans ÷ wall = %.4f (want within 2%%)", r.coverage)
}

// replay walks the keys serially for replayEpochs epochs, one span per
// call into a layer: read → decode → augment+cast (the two halves of
// Prepare*Scratch, under one parent span) → checksum → each *Into kernel
// on its own → feature → nn forward/backward, and one Reduce per epoch.
func replay(ctx context.Context, tr *tracer, in replayInput) (replayResult, error) {
	res := replayResult{checksums: map[sampleID]uint64{}}
	first := len(tr.snapshot())
	root := -1 // opened once set-up is done, so the wall it spans is all calls

	timed := func(name, layer string, epoch, parent int, f func() error) error {
		start := time.Now()
		err := f()
		tr.add(name, layer, in.job, epoch, parent, laneReplay, start, time.Now())
		return err
	}

	scratch := dataprep.NewScratch()
	net := nn.NewMLP(in.widths, rand.New(rand.NewSource(modelSeed)))
	ring, err := collective.NewRing()
	if err != nil {
		return res, err
	}
	var img, crop, aug imgproc.Image
	var ten imgproc.Tensor
	var sig []float64
	var mel dsp.Spectrogram
	var plan *dsp.MelPlan
	if in.audio {
		if plan, err = dsp.NewMelPlan(in.audCfg.Mel); err != nil {
			return res, err
		}
	}

	root = tr.open("bench.replay", "bench", in.job, -1, -1, laneReplay)
	for epoch := 0; epoch < replayEpochs; epoch++ {
		_ = timed("nn.zero_grad", "nn", epoch, root, func() error { net.ZeroGrad(); return nil })
		for _, key := range in.keys {
			var obj storage.Object
			readName, readLayer := "storage.read", "storage"
			if in.client != nil {
				readName, readLayer = "nvme.read", "nvme"
			}
			if err := timed(readName, readLayer, epoch, root, func() (err error) {
				if in.client != nil {
					obj, err = in.client.ReadObject(key)
				} else {
					obj, err = in.store.GetContext(ctx, key)
				}
				return err
			}); err != nil {
				return res, err
			}

			// Per-sample seeding is the replay's own cost, not a layer's.
			var seed int64
			var rng *rand.Rand
			_ = timed("bench.seed", "bench", epoch, root, func() error {
				seed = dataprep.SampleSeed(in.seed, key, epoch)
				rng = rand.New(rand.NewSource(seed))
				return nil
			})
			p := dataprep.Prepared{Key: key, Label: obj.Label}
			prep := tr.open("dataprep.prepare", "dataprep", in.job, epoch, root, laneReplay)
			if in.audio {
				err = timed("dsp.pcm_decode", "dsp", epoch, prep, func() (err error) {
					sig, err = dsp.PCM16DecodeInto(sig, obj.Data)
					return err
				})
				if err == nil {
					err = timed("dataprep.augment_cast", "dataprep", epoch, prep, func() (err error) {
						p.Audio, err = dataprep.PrepareAudioDecoded(sig, in.audCfg, seed, scratch)
						return err
					})
				}
			} else {
				err = timed("imgproc.decode", "imgproc", epoch, prep, func() error {
					return imgproc.DecodeJPEGInto(&img, obj.Data)
				})
				if err == nil {
					err = timed("dataprep.augment_cast", "dataprep", epoch, prep, func() (err error) {
						p.Image, err = dataprep.PrepareImageDecoded(&img, in.imgCfg, seed, scratch)
						return err
					})
				}
			}
			tr.close(prep)
			if err != nil {
				return res, fmt.Errorf("replay %s epoch %d: %w", key, epoch, err)
			}
			_ = timed("bench.checksum", "bench", epoch, root, func() error {
				res.checksums[sampleID{key, epoch}] = checksum(p)
				return nil
			})

			// The individual kernels, each on its own span. Mirror is
			// timed on every sample; the pipeline applies it to
			// MirrorProb of them.
			if in.audio {
				frames := in.audCfg.Mel.STFT.NumFrames(len(sig))
				if n := frames * in.audCfg.Mel.NumMels; cap(mel.Data) < n {
					mel.Data = make([]float64, n)
				}
				if err := timed("dsp.logmel", "dsp", epoch, root, func() error { return plan.LogMelInto(&mel, sig) }); err != nil {
					return res, err
				}
				_ = timed("dsp.specaug_norm", "dsp", epoch, root, func() error {
					dsp.TimeMask(&mel, in.audCfg.TimeMaskWidth, 0, rng)
					dsp.FreqMask(&mel, in.audCfg.FreqMaskWidth, 0, rng)
					dsp.Normalize(&mel)
					return nil
				})
			} else {
				if err := timed("imgproc.crop", "imgproc", epoch, root, func() error {
					return imgproc.RandomCropInto(&crop, &img, in.imgCfg.CropW, in.imgCfg.CropH, rng)
				}); err != nil {
					return res, err
				}
				_ = timed("imgproc.mirror", "imgproc", epoch, root, func() error { imgproc.MirrorInto(&aug, &crop); return nil })
				_ = timed("imgproc.noise", "imgproc", epoch, root, func() error {
					imgproc.GaussianNoiseInto(&aug, &aug, in.imgCfg.NoiseStd, rng)
					return nil
				})
				if err := timed("imgproc.cast", "imgproc", epoch, root, func() error {
					return imgproc.ToTensorInto(&ten, &aug, in.imgCfg.Mean, in.imgCfg.Std)
				}); err != nil {
					return res, err
				}
			}

			var x []float64
			if err := timed("train.extract", "train", epoch, root, func() (err error) {
				x, _, err = feature(p)
				return err
			}); err != nil {
				return res, err
			}
			_ = timed("nn.forward_backward", "nn", epoch, root, func() error {
				net.LossAndBackward(net.Forward(x), obj.Label)
				return nil
			})
		}
		grads := make([][]float64, in.replicas)
		_ = timed("nn.gradients", "nn", epoch, root, func() error {
			for i := range grads {
				grads[i] = net.Gradients()
			}
			return nil
		})
		if err := timed("collective.reduce", "collective", epoch, root, func() error { return ring.Reduce(ctx, grads) }); err != nil {
			return res, err
		}
	}
	tr.close(root)

	spans := tr.snapshot()
	res.coverage = childCoverage(spans, root)
	res.byName = durationsByName(spans[first:])
	return res, nil
}

// probeCacheHit times a warm dscache.Acquire + Release on a stand-alone
// one-entry tier: the hit path's own cost, without a workload around it.
func probeCacheHit() (float64, error) {
	ctx := context.Background()
	c := dscache.New(units.MB)
	decode := func(pool *memframe.Set) (dscache.Decoded, error) {
		return dscache.Decoded{Signal: pool.F64.Get(1024)}, nil
	}
	const n = 20000
	for i := 0; i < n/10; i++ { // first call populates, the rest warm up
		h, err := c.Acquire(ctx, "k", dscache.AudioFingerprint, decode)
		if err != nil {
			return 0, err
		}
		h.Release()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		h, err := c.Acquire(ctx, "k", dscache.AudioFingerprint, decode)
		if err != nil {
			return 0, err
		}
		h.Release()
	}
	return float64(time.Since(start)) / n, nil
}

// probeScaling is rate(workers = nproc) ÷ (nproc × rate(workers = 1)) of
// Executor.PrepareBatchContext alone: one warm-up epoch, then the median
// of three one-epoch repetitions per worker count.
func probeScaling(ctx context.Context, env *trainEnv) (float64, error) {
	rate := func(workers int) (float64, error) {
		exec := dataprep.NewExecutor(env.hostPreparer(), workers, env.seed)
		var rates []float64
		for epoch := 0; epoch < 4; epoch++ {
			start := time.Now()
			ps, err := exec.PrepareBatchContext(ctx, env.store, env.keys, epoch)
			if err != nil {
				return 0, err
			}
			if epoch > 0 {
				rates = append(rates, float64(len(ps))/time.Since(start).Seconds())
			}
			exec.Recycle(ps...)
		}
		return median(rates), nil
	}
	one, err := rate(1)
	if err != nil {
		return 0, err
	}
	all, err := rate(env.workers)
	if err != nil {
		return 0, err
	}
	return all / (float64(env.workers) * one), nil
}

// probeJpegdec decodes the corpus with one reused jpegdec.Decoder. No
// live path calls jpegdec today; the row is the before-number for the
// change that wires it in or deletes it.
func probeJpegdec(store *storage.Store, keys []string, rep *report) error {
	dec := jpegdec.NewDecoder()
	var entropy, transform int64
	var wall time.Duration
	for pass := 0; pass < 2; pass++ { // pass 0 grows the decoder's scratch
		entropy, transform, wall = 0, 0, 0
		for _, key := range keys {
			obj, err := store.Get(key)
			if err != nil {
				return err
			}
			start := time.Now()
			_, st, err := dec.Decode(obj.Data)
			wall += time.Since(start)
			if err != nil {
				return fmt.Errorf("jpegdec %s: %w", key, err)
			}
			entropy += st.EntropyNanos
			transform += st.TransformNanos
		}
	}
	rep.Metrics["jpegdec.decode_ns_per_sample"] = single(float64(wall)/float64(len(keys)), "ns")
	rep.Metrics["jpegdec.serial_share"] = single(ratio(float64(entropy), float64(entropy+transform)), "share")
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0 // not Linux: the row stays 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
