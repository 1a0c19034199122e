// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus substrate
// micro-benchmarks for the kernels the models are calibrated from. Each
// BenchmarkFig*/BenchmarkTable* reports the experiment's headline number
// as a custom metric so the bench log doubles as the paper-vs-measured
// record.
package trainbox_test

import (
	"context"
	"math/rand"
	"testing"

	"trainbox/internal/arch"
	"trainbox/internal/collective"
	"trainbox/internal/core"
	"trainbox/internal/dataprep"
	"trainbox/internal/dsp"
	"trainbox/internal/experiments"
	"trainbox/internal/fpga"
	"trainbox/internal/imgproc"
	"trainbox/internal/jpegdec"
	"trainbox/internal/pcie"
	"trainbox/internal/storage"
	"trainbox/internal/workload"
)

func BenchmarkTable01Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.TableI(); len(tb.Rows) != 7 {
			b.Fatal("table I incomplete")
		}
	}
}

func BenchmarkTable02FPGAImage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(); err != nil {
			b.Fatal(err)
		}
	}
	u, err := fpga.XCVU9P().Utilization(fpga.ImageEngines())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*u.LUTs, "%LUT(paper=78.7)")
	b.ReportMetric(100*u.DSP, "%DSP(paper=30.5)")
}

func BenchmarkTable03FPGAAudio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
	u, err := fpga.XCVU9P().Utilization(fpga.AudioEngines())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*u.LUTs, "%LUT(paper=80.2)")
	b.ReportMetric(100*u.BRAM, "%BRAM(paper=77.1)")
}

func BenchmarkFig02aTrends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.Fig2a(); len(tb.Rows) == 0 {
			b.Fatal("empty trends")
		}
	}
}

func BenchmarkFig02bRingLatency(b *testing.B) {
	var at256 float64
	for i := 0; i < b.N; i++ {
		at256 = experiments.Fig2b().NormalizedAt256
	}
	b.ReportMetric(at256, "norm-latency@256(paper≈2)")
}

func BenchmarkFig03Ladder(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.FinalPrepOverOthers
	}
	b.ReportMetric(ratio, "prep/others(paper=54.9)")
}

func BenchmarkFig05Augmentation(b *testing.B) {
	cfg := experiments.DefaultFig5Config()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gap = 100 * (res.FinalWith - res.FinalWithout)
	}
	b.ReportMetric(gap, "acc-gap-points(paper=29.1)")
}

func BenchmarkFig08BaselineScalability(b *testing.B) {
	var sat float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		sat = res.MaxSaturation
	}
	b.ReportMetric(sat, "saturation-accels(paper≈18)")
}

func BenchmarkFig09LatencyDecomposition(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		share = 100 * res.MeanPrepShare
	}
	b.ReportMetric(share, "prep-share-%(paper=98.1)")
}

func BenchmarkFig10Requirements(b *testing.B) {
	var res experiments.Fig10Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MaxCPU, "cpu-x-dgx2(paper=100.7)")
	b.ReportMetric(res.MaxMemory, "mem-x-dgx2(paper=17.9)")
	b.ReportMetric(res.MaxPCIe, "pcie-x-dgx2(paper=18.0)")
}

func BenchmarkFig11Decomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19Speedups(b *testing.B) {
	var res experiments.Fig19Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig19()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgTrainBox, "avg-speedup(paper=44.4)")
	b.ReportMetric(res.AvgAcc, "acc-speedup(paper=3.32)")
	b.ReportMetric(res.MaxTrainBox, "max-speedup(paper=84.3)")
	b.ReportMetric(res.ClusteringGain, "clustering-gain(paper=13.4)")
}

func BenchmarkFig20BatchSweep(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig20()
		if err != nil {
			b.Fatal(err)
		}
		sp = res.SpeedupAtLargest
	}
	b.ReportMetric(sp, "speedup@8192(paper≈55)")
}

func BenchmarkFig21ScalabilityInception(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig21("Inception-v4")
		if err != nil {
			b.Fatal(err)
		}
		final = res.FinalByConfig["TrainBox"]
	}
	b.ReportMetric(final, "accel-equiv@256(paper≈256)")
}

func BenchmarkFig21ScalabilityTFSR(b *testing.B) {
	var final, noPool float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig21("TF-SR")
		if err != nil {
			b.Fatal(err)
		}
		final = res.FinalByConfig["TrainBox"]
		noPool = res.FinalByConfig["TrainBox w/o prep-pool"]
	}
	b.ReportMetric(final, "accel-equiv@256(paper≈256)")
	b.ReportMetric(noPool, "no-pool-accel-equiv")
}

func BenchmarkFig22Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig22(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------

func BenchmarkKernelFFT512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := dsp.FFT(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelLogMel(b *testing.B) {
	sig, err := dsp.SynthesizeAudio(dsp.DefaultSynthConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dsp.DefaultMelConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.LogMelSpectrogram(sig, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelImagePipeline(b *testing.B) {
	img := imgproc.SynthesizeImage(imgproc.DefaultSynthConfig(), 1, 3)
	data, err := imgproc.EncodeJPEG(img, 85)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataprep.DefaultImageConfig()
	s := dataprep.NewScratch()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataprep.PrepareImageScratch(data, cfg, int64(i), s); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkReducer(b *testing.B, name string, opts ...collective.Option) {
	const ranks, size = 8, 4096
	red, err := collective.ByName(name, opts...)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	orig := make([][]float64, ranks)
	for r := range orig {
		orig[r] = make([]float64, size)
		for i := range orig[r] {
			orig[r][i] = rng.NormFloat64()
		}
	}
	work := make([][]float64, ranks)
	for r := range work {
		work[r] = make([]float64, size)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range work {
			copy(work[r], orig[r])
		}
		if err := red.Reduce(ctx, work); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelRingAllReduce(b *testing.B) {
	benchmarkReducer(b, "ring")
}

func BenchmarkKernelParamServerReduce(b *testing.B) {
	benchmarkReducer(b, "ps", collective.WithShards(4))
}

func BenchmarkKernelMaxMinFair(b *testing.B) {
	sys, err := arch.Build(arch.Config{Kind: arch.Baseline, NumAccels: 64})
	if err != nil {
		b.Fatal(err)
	}
	flows := make([]pcie.Flow, 0, 64)
	for i, a := range sys.Accels {
		flows = append(flows, pcie.Flow{Src: sys.SSDs[i%len(sys.SSDs)], Dst: a, Weight: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Topo.MaxMinFair(flows)
	}
}

func BenchmarkKernelSolve256(b *testing.B) {
	sys, err := arch.Build(arch.Config{Kind: arch.TrainBox, NumAccels: 256})
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("Resnet-50")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(sys, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDESBaseline(b *testing.B) {
	sys, err := arch.Build(arch.Config{Kind: arch.Baseline, NumAccels: 64})
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("Resnet-50")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.SimOptions{ChunkSamples: 64, Chunks: 500, InFlight: 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SimulatePrep(sys, w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDatasetBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := storage.NewStore(storage.DefaultSSDSpec())
		if err := dataprep.BuildImageDataset(store, 4, 4, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks ---------------------------------------------

func BenchmarkAblationFPGAProvisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFPGAProvisioning("Resnet-50"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEthernet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEthernet("TF-SR"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSyncScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSyncScheme(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRCCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRCCapacity("Resnet-50"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPoolSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPoolSharing(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelTrainingReplay(b *testing.B) {
	sys, err := arch.Build(arch.Config{Kind: arch.TrainBox, NumAccels: 64})
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("Resnet-50")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SimulateTraining(sys, w, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelTreeAllReduce(b *testing.B) {
	benchmarkReducer(b, "tree")
}

func BenchmarkKernelMFCC(b *testing.B) {
	sig, err := dsp.SynthesizeAudio(dsp.SynthConfig{SampleRate: 16000, Duration: 1, NumTones: 3}, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dsp.DefaultMFCCConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.MFCC(sig, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelRICAP(b *testing.B) {
	var srcs [4]*imgproc.Image
	for i := range srcs {
		srcs[i] = imgproc.SynthesizeImage(imgproc.DefaultSynthConfig(), int64(i), i)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := imgproc.RICAP(srcs, 224, 224, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyFailureInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FailureStudy("Inception-v4"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyFutureWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FutureWork(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelVideoPipeline(b *testing.B) {
	clip, err := imgproc.SynthesizeVideo(imgproc.SynthConfig{Size: 256, Quality: 85}, 1, 2, 16)
	if err != nil {
		b.Fatal(err)
	}
	data, err := imgproc.EncodeMJPEG(clip, 85)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataprep.DefaultVideoConfig()
	s := dataprep.NewScratch()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataprep.PrepareVideoScratch(data, cfg, int64(i), s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.InferenceStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyStaticPrep(b *testing.B) {
	var pb float64
	for i := 0; i < b.N; i++ {
		pb = experiments.StaticPrep().ImagenetPB
	}
	b.ReportMetric(pb, "imagenet-PB(paper=2.2)")
}

func BenchmarkStudyHuffmanCeiling(b *testing.B) {
	var res experiments.HuffmanResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.HuffmanStudy(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.SerialShare, "serial-share-%")
	b.ReportMetric(res.AmdahlCeiling, "amdahl-ceiling-x")
}

func BenchmarkKernelJPEGDecodeFromScratch(b *testing.B) {
	img := imgproc.SynthesizeImage(imgproc.DefaultSynthConfig(), 1, 3)
	data, err := imgproc.EncodeJPEG(img, 85)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := jpegdec.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyPlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PlannerStudy(); err != nil {
			b.Fatal(err)
		}
	}
}
