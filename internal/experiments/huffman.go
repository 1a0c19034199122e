package experiments

import (
	"fmt"
	"math"

	"trainbox/internal/imgproc"
	"trainbox/internal/jpegdec"
	"trainbox/internal/report"
	"trainbox/internal/workload"
)

// huffmanStudy measures the live JPEG decoder's phase split on eight
// stored-size images and derives the Amdahl ceiling — the quantitative
// form of Section V-B's device argument: "there is no good parallel
// algorithm for the Huffman decoding phase in JPEG decoding", so a GPU's
// thousands of lanes can only accelerate the transform phase, and decode
// speedup saturates at 1/serial-share regardless of lane count. An FPGA
// instead pipelines the serial walk at one symbol per cycle and
// replicates whole decoders, which is why the paper offloads to FPGAs.
// Its headlines are the measured serial share and the ceiling.
func huffmanStudy(workload.Workload) (Result, error) {
	// Each image is decoded repeats times and each phase keeps its
	// fastest time, so a preemption of a few milliseconds — as long as
	// the whole corpus's decode — cannot land in one phase's total.
	const images, repeats = 8, 5
	dec := jpegdec.NewDecoder()
	var agg jpegdec.DecodeStats
	for i := 0; i < images; i++ {
		img := imgproc.SynthesizeImage(imgproc.DefaultSynthConfig(), int64(i), i%10)
		data, err := imgproc.EncodeJPEG(img, 85)
		if err != nil {
			return Result{}, err
		}
		probe, full := int64(math.MaxInt64), int64(math.MaxInt64)
		for r := 0; r < repeats; r++ {
			_, stats, err := dec.Decode(data)
			if err != nil {
				return Result{}, err
			}
			probe = min(probe, stats.EntropyNanos)
			full = min(full, stats.EntropyNanos+stats.TransformNanos)
		}
		agg.EntropyNanos += probe
		agg.TransformNanos += full - probe
	}
	serial := agg.SerialShare()
	t := report.NewTable(
		fmt.Sprintf("Section V-B — JPEG decode parallelism ceiling (measured serial share %.0f%%)", 100*serial),
		"transform parallelism ×", "decode speedup", "lane efficiency %")
	for _, p := range []float64{1, 4, 16, 64, 1024, 65536} {
		speedup := 1 / (serial + (1-serial)/p)
		t.AddRowf(p, speedup, 100*speedup/p)
	}
	t.AddRowf("∞ (Amdahl ceiling)", 1/serial, 0.0)
	return Result{Tables: []*report.Table{t},
		Headlines: map[string]float64{"serial share": serial, "amdahl ceiling": 1 / serial}}, nil
}
