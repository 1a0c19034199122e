package main

import (
	"fmt"
	"testing"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
	"trainbox/internal/jpegdec"
	"trainbox/internal/memframe"
	"trainbox/internal/report"
	"trainbox/internal/storage"
	"trainbox/internal/units"
)

// kernelStat is one per-kernel measurement in the JSON report. Allocs
// per sample is the gated quantity (cmd/benchdiff fails CI on >25%
// growth); ns per sample is informational — wall-clock on shared CI
// runners is too noisy to gate.
type kernelStat struct {
	NsPerSample     float64 `json:"ns_per_sample"`
	AllocsPerSample float64 `json:"allocs_per_sample"`
}

// measureKernel times fn with a doubling loop until it has run for at
// least minKernelDur, and counts steady-state allocations with
// testing.AllocsPerRun (which warms fn once before counting).
func measureKernel(fn func()) kernelStat {
	allocs := testing.AllocsPerRun(10, fn)
	const minKernelDur = 30 * time.Millisecond
	for iters := 1; ; iters *= 2 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if el := time.Since(start); el >= minKernelDur || iters >= 1<<20 {
			return kernelStat{
				NsPerSample:     float64(el.Nanoseconds()) / float64(iters),
				AllocsPerSample: allocs,
			}
		}
	}
}

// stepKernels measures the per-kernel cost matrix of the sample path —
// decode, resize, FFT, MFCC, cast, and the end-to-end Prepare* variants
// — recording ns/sample and allocs/sample per kernel.
func stepKernels(h *harness) error {
	synth := imgproc.DefaultSynthConfig()
	srcImg := imgproc.SynthesizeImage(synth, 1, 3)
	jpegData, err := imgproc.EncodeJPEG(srcImg, synth.Quality)
	if err != nil {
		return err
	}
	audioCfg := dsp.DefaultSynthConfig()
	signal, err := dsp.SynthesizeAudio(audioCfg, 1)
	if err != nil {
		return err
	}
	pcmData := dsp.PCM16Encode(signal)
	imageCfg := dataprep.DefaultImageConfig()
	audioPrep := dataprep.DefaultAudioConfig()

	kernels := map[string]func() (func(), error){
		// JPEG decode on the internal decoder with a reused Decoder (the
		// FPGA engine model's steady state).
		"jpeg_decode": func() (func(), error) {
			dec := jpegdec.NewDecoder()
			return func() {
				if _, _, err := dec.Decode(jpegData); err != nil {
					panic(err)
				}
			}, nil
		},
		"resize": func() (func(), error) {
			var dst imgproc.Image
			return func() {
				if err := imgproc.ResizeInto(&dst, srcImg, imgproc.ModelSize, imgproc.ModelSize); err != nil {
					panic(err)
				}
			}, nil
		},
		"fft512": func() (func(), error) {
			plan, err := dsp.NewFFTPlan(512)
			if err != nil {
				return nil, err
			}
			src := make([]complex128, 512)
			for i := range src {
				src[i] = complex(float64(i%101)/101, 0)
			}
			work := make([]complex128, 512)
			return func() {
				copy(work, src)
				if err := plan.Transform(work); err != nil {
					panic(err)
				}
			}, nil
		},
		"mfcc": func() (func(), error) {
			plan, err := dsp.NewMFCCPlan(dsp.DefaultMFCCConfig())
			if err != nil {
				return nil, err
			}
			var out dsp.Spectrogram
			return func() {
				if err := plan.MFCCInto(&out, signal); err != nil {
					panic(err)
				}
			}, nil
		},
		"cast": func() (func(), error) {
			var ten imgproc.Tensor
			return func() {
				if err := imgproc.ToTensorInto(&ten, srcImg, imgproc.ImagenetMean, imgproc.ImagenetStd); err != nil {
					panic(err)
				}
			}, nil
		},
		// End-to-end per-sample preparation: pooled scratch + recycled
		// outputs (steady state).
		"prepare_image": func() (func(), error) {
			out := memframe.NewSet()
			s := dataprep.NewScratchWithOutput(out)
			return func() {
				t, err := dataprep.PrepareImageScratch(jpegData, imageCfg, 7, s)
				if err != nil {
					panic(err)
				}
				out.F32.Put(t.Data)
			}, nil
		},
		// Warm shared-cache path: the decode is resident, so each sample
		// pays only the seeded augmentation tail. The gap to
		// prepare_image is what the tier saves per hit.
		"prepare_image_cached": func() (func(), error) {
			c := dscache.New(64 * units.MB)
			prep := dscache.ImagePreparer{Cache: c, Config: imageCfg}
			obj := storage.Object{Key: "bench", Data: jpegData}
			out := memframe.NewSet()
			s := dataprep.NewScratchWithOutput(out)
			if p := prep.Prepare(obj, 7, s); p.Err != nil {
				return nil, p.Err
			} else {
				out.F32.Put(p.Image.Data)
			}
			return func() {
				p := prep.Prepare(obj, 7, s)
				if p.Err != nil {
					panic(p.Err)
				}
				out.F32.Put(p.Image.Data)
			}, nil
		},
		"prepare_audio": func() (func(), error) {
			out := memframe.NewSet()
			s := dataprep.NewScratchWithOutput(out)
			return func() {
				sp, err := dataprep.PrepareAudioScratch(pcmData, audioPrep, 7, s)
				if err != nil {
					panic(err)
				}
				out.F64.Put(sp.Data)
			}, nil
		},
	}

	order := []string{
		"jpeg_decode", "resize", "fft512", "mfcc", "cast",
		"prepare_image", "prepare_image_cached", "prepare_audio",
	}
	t := report.NewTable("Per-kernel sample path (allocs/sample gated by CI)",
		"kernel", "ns/sample", "allocs/sample")
	for _, name := range order {
		fn, err := kernels[name]()
		if err != nil {
			return fmt.Errorf("kernel %s: %w", name, err)
		}
		st := measureKernel(fn)
		h.rep.Kernels[name] = st
		t.AddRowf(name, st.NsPerSample, st.AllocsPerSample)
	}
	h.print(t)
	return nil
}
