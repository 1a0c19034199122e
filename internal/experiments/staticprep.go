package experiments

import (
	"trainbox/internal/imgproc"
	"trainbox/internal/report"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// staticPrep quantifies Section III-D's "limitations of naive solutions":
// materializing augmented datasets ahead of time instead of preparing
// on-line. For random cropping alone, every stored image expands into
// every distinct crop position; the paper rounds 33×33 positions to
// 32×32 and reports ≈2.2 PB for Imagenet, the headline. The table
// extends the analysis with mirroring (×2) and a 10-seed noise ensemble
// (×10) to show the blow-up compounds multiplicatively.
func staticPrep(workload.Workload) (Result, error) {
	const (
		numImages = 14e6 // Imagenet items (Section III-D)
		cropMB    = 0.15 // 224×224 RGB, the paper's per-crop figure
	)
	crops := imgproc.NumDistinctCrops(imgproc.StoredSize, imgproc.StoredSize,
		imgproc.ModelSize, imgproc.ModelSize)
	// The paper's arithmetic uses 32×32.
	paperCrops := 32 * 32

	t := report.NewTable("Section III-D — storage for static (offline) data preparation",
		"augmentations materialized", "variants/image", "dataset size")
	row := func(label string, variants int) float64 {
		bytes := float64(variants) * cropMB * 1e6 * numImages
		t.AddRowf(label, variants, units.Bytes(bytes).String())
		return bytes / float64(units.PB)
	}
	row("none (one center crop)", 1)
	pb := row("random crop (paper's 32×32)", paperCrops)
	row("random crop (exact 33×33)", crops)
	row("+ mirror", crops*2)
	row("+ 10-seed noise", crops*2*10)
	t.AddRowf("on-line preparation (TrainBox)", 0, units.Bytes(cropMB*1e6*numImages).String())
	return Result{Tables: []*report.Table{t}, Headlines: map[string]float64{"imagenet PB": pb}}, nil
}
