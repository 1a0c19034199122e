package experiments

import (
	"fmt"

	"trainbox/internal/imgproc"
	"trainbox/internal/jpegdec"
	"trainbox/internal/report"
)

// HuffmanResult carries the decode phase measurements.
type HuffmanResult struct {
	Table *report.Table
	// SerialShare is the measured fraction of decode time in the
	// bit-serial Huffman walk.
	SerialShare float64
	// AmdahlCeiling is the decode speedup limit 1/serial — the most any
	// amount of transform parallelism can deliver.
	AmdahlCeiling float64
}

// HuffmanStudy measures the live JPEG decoder's phase split on
// stored-size images and derives the Amdahl ceiling — the quantitative
// form of Section V-B's device argument: "there is no good parallel
// algorithm for the Huffman decoding phase in JPEG decoding", so a GPU's
// thousands of lanes can only accelerate the transform phase, and decode
// speedup saturates at 1/serial-share regardless of lane count. An FPGA
// instead pipelines the serial walk at one symbol per cycle and
// replicates whole decoders, which is why the paper offloads to FPGAs.
func HuffmanStudy(images int) (HuffmanResult, error) {
	if images <= 0 {
		return HuffmanResult{}, fmt.Errorf("experiments: need ≥ 1 image")
	}
	dec := jpegdec.NewDecoder()
	var agg jpegdec.DecodeStats
	for i := 0; i < images; i++ {
		img := imgproc.SynthesizeImage(imgproc.DefaultSynthConfig(), int64(i), i%10)
		data, err := imgproc.EncodeJPEG(img, 85)
		if err != nil {
			return HuffmanResult{}, err
		}
		_, stats, err := dec.Decode(data)
		if err != nil {
			return HuffmanResult{}, err
		}
		agg.EntropyNanos += stats.EntropyNanos
		agg.TransformNanos += stats.TransformNanos
	}
	serial := agg.SerialShare()
	res := HuffmanResult{SerialShare: serial, AmdahlCeiling: 1 / serial}

	t := report.NewTable(
		fmt.Sprintf("Section V-B — JPEG decode parallelism ceiling (measured serial share %.0f%%)", 100*serial),
		"transform parallelism ×", "decode speedup", "lane efficiency %")
	for _, p := range []float64{1, 4, 16, 64, 1024, 65536} {
		speedup := 1 / (serial + (1-serial)/p)
		t.AddRowf(p, speedup, 100*speedup/p)
	}
	t.AddRowf("∞ (Amdahl ceiling)", res.AmdahlCeiling, 0.0)
	res.Table = t
	return res, nil
}
