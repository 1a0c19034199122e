package experiments

import (
	"strconv"
	"testing"
	"trainbox/internal/workload"
)

func TestFutureWorkWidensTheGap(t *testing.T) {
	tb := run(t, "future", "").Tables[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Both projections must show TrainBox ahead, and the video workload
	// (16× prep per sample) must exceed the Table I image speedups.
	for _, row := range tb.Rows {
		sp, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatal(err)
		}
		if sp <= 10 {
			t.Errorf("%s: future-work speedup = %.1f×, want large", row[0], sp)
		}
		// Baselines must be host-CPU-bound — the preparation wall.
		if row[3] != "host-cpu" {
			t.Errorf("%s baseline bottleneck = %s, want host-cpu", row[0], row[3])
		}
	}
	// The next-gen accelerator projection: 4× faster accelerators make
	// the *baseline* no faster (it is prep-bound), so its speedup should
	// exceed today's ResNet-50 speedup (~31×).
	var nextGen float64
	for _, row := range tb.Rows {
		if row[0] == "Resnet-50 (next-gen accel)" {
			nextGen, _ = strconv.ParseFloat(row[6], 64)
		}
	}
	if nextGen < 40 {
		t.Errorf("next-gen ResNet speedup = %.1f×, should exceed today's ≈31×", nextGen)
	}
}

func TestFutureWorkloadsValidate(t *testing.T) {
	ws := workload.FutureWorkloads()
	if len(ws) != 2 {
		t.Fatalf("future workloads = %d", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.Name, err)
		}
	}
	if ws[0].Type != workload.Video {
		t.Errorf("first projection type = %v, want video", ws[0].Type)
	}
	// The video clip's preparation must cost roughly 16 image pipelines.
	img, _ := workload.ByName("Resnet-50")
	ratio := ws[0].Prep.TotalCPUSeconds() / img.Prep.TotalCPUSeconds()
	if ratio < 12 || ratio > 20 {
		t.Errorf("video/image prep cost ratio = %.1f, want ≈16", ratio)
	}
}

func TestInferenceStudyShape(t *testing.T) {
	tb := run(t, "inference", "").Tables[0]
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		sp, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		if sp <= 1 {
			t.Errorf("%s: serving speedup = %v, want > 1", row[0], sp)
		}
		sat, _ := strconv.ParseFloat(row[2], 64)
		if sat <= 0 || sat > 25 {
			t.Errorf("%s: serving saturation = %v accels, want small", row[0], sat)
		}
	}
}

func TestStaticPrepMatchesPaperEstimate(t *testing.T) {
	res := run(t, "staticprep", "")
	// Section III-D: "static data preparation requires about 2.2 PBs".
	if pb := headline(t, res, "imagenet PB"); pb < 1.8 || pb > 2.4 {
		t.Errorf("static-prep storage = %.2f PB, paper reports ≈2.2", pb)
	}
	if len(res.Tables[0].Rows) != 6 {
		t.Errorf("rows = %d", len(res.Tables[0].Rows))
	}
}

func TestHuffmanStudyCeiling(t *testing.T) {
	res := run(t, "huffman", "")
	if share := headline(t, res, "serial share"); share <= 0.03 || share >= 0.9 {
		t.Errorf("serial share = %.2f, want a substantial interior fraction", share)
	}
	if ceiling := headline(t, res, "amdahl ceiling"); ceiling < 1.1 {
		t.Errorf("Amdahl ceiling = %.1f, must exceed 1", ceiling)
	}
	if len(res.Tables[0].Rows) != 7 {
		t.Errorf("rows = %d", len(res.Tables[0].Rows))
	}
}

func TestPlannerStudy(t *testing.T) {
	tb := run(t, "planner", "").Tables[0]
	if len(tb.Rows) != 14 { // 7 workloads × 2 targets
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		target, _ := strconv.ParseFloat(row[1], 64)
		achieved, _ := strconv.ParseFloat(row[5], 64)
		if achieved < target {
			t.Errorf("%s: plan achieved %v below target %v", row[0], achieved, target)
		}
	}
}
