package experiments

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestFig2aRenders(t *testing.T) {
	out := Fig2a().String()
	if !strings.Contains(out, "2012") || !strings.Contains(out, "2019") {
		t.Errorf("fig2a missing years:\n%s", out)
	}
}

func TestFig2bSaturatesNearTwo(t *testing.T) {
	res := Fig2b()
	if res.NormalizedAt256 < 1.9 || res.NormalizedAt256 > 2.2 {
		t.Errorf("normalized latency at 256 = %.3f, want ≈2 (Figure 2b)", res.NormalizedAt256)
	}
	if len(res.Table.Rows) != 9 {
		t.Errorf("fig2b rows = %d", len(res.Table.Rows))
	}
}

func TestFig3FinalRatio(t *testing.T) {
	res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: prep is 54.9× the others in the final configuration; the
	// model's calibration lands in the tens.
	if res.FinalPrepOverOthers < 20 || res.FinalPrepOverOthers > 100 {
		t.Errorf("final prep/others = %.1f×, want tens (paper 54.9×)", res.FinalPrepOverOthers)
	}
	if len(res.Table.Rows) != 4 {
		t.Errorf("fig3 rows = %d, want 4", len(res.Table.Rows))
	}
}

func TestFig5AugmentationWins(t *testing.T) {
	res, err := Fig5(DefaultFig5Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalWith <= res.FinalWithout {
		t.Errorf("augmented accuracy %.3f should beat plain %.3f (Figure 5)",
			res.FinalWith, res.FinalWithout)
	}
	if res.FinalWith-res.FinalWithout < 0.05 {
		t.Errorf("augmentation gap = %.3f, want a clear margin", res.FinalWith-res.FinalWithout)
	}
	if res.FinalWith < 0.55 {
		t.Errorf("augmented model accuracy %.3f suspiciously low", res.FinalWith)
	}
}

func TestFig5RejectsDegenerateConfig(t *testing.T) {
	if _, err := Fig5(Fig5Config{}); err == nil {
		t.Error("degenerate config accepted")
	}
}

func TestFig8SaturationNearEighteen(t *testing.T) {
	res, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8: saturation "after 18 neural network accelerators".
	if res.MaxSaturation < 14 || res.MaxSaturation > 22 {
		t.Errorf("max baseline saturation = %.1f accel-equivalents, want ≈18", res.MaxSaturation)
	}
	if len(res.Table.Rows) != 7 {
		t.Errorf("fig8 rows = %d", len(res.Table.Rows))
	}
}

func TestFig9MeanPrepShare(t *testing.T) {
	res, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 98.1% on average.
	if res.MeanPrepShare < 0.93 || res.MeanPrepShare > 1 {
		t.Errorf("mean prep share = %.3f, want ≈0.98", res.MeanPrepShare)
	}
}

func TestFig10Headlines(t *testing.T) {
	res, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCPU < 60 || res.MaxCPU > 130 {
		t.Errorf("max CPU = %.1f×, paper reports 100.7×", res.MaxCPU)
	}
	if res.MaxMemory < 12 || res.MaxMemory > 26 {
		t.Errorf("max memory = %.1f×, paper reports 17.9×", res.MaxMemory)
	}
	if res.MaxCores < 3000 {
		t.Errorf("max cores = %.0f, paper reports 4,833", res.MaxCores)
	}
	for _, tb := range []string{res.CPU.String(), res.Memory.String(), res.PCIe.String()} {
		if !strings.Contains(tb, "Resnet-50") {
			t.Error("fig10 table missing workloads")
		}
	}
}

func TestFig11SharesMatchPaper(t *testing.T) {
	tb, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "image") || !strings.Contains(out, "audio") {
		t.Errorf("fig11 missing input types:\n%s", out)
	}
	if len(tb.Rows) != 6 { // 2 inputs × 3 resources
		t.Errorf("fig11 rows = %d, want 6", len(tb.Rows))
	}
}

func TestTableIMatchesWorkloads(t *testing.T) {
	tb := TableI()
	if len(tb.Rows) != 7 {
		t.Errorf("table I rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "7431") {
		t.Error("table I missing ResNet-50 throughput")
	}
}

func TestTablesIIAndIII(t *testing.T) {
	t2, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2.String(), "Jpeg decoder") {
		t.Error("table II missing JPEG decoder")
	}
	t3, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t3.String(), "Spectrogram") {
		t.Error("table III missing spectrogram engine")
	}
	// Both end with a totals row.
	if t2.Rows[len(t2.Rows)-1][0] != "Total (%)" || t3.Rows[len(t3.Rows)-1][0] != "Total (%)" {
		t.Error("missing totals rows")
	}
}

func TestFig19Headlines(t *testing.T) {
	res, err := Fig19()
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgTrainBox < 35 || res.AvgTrainBox > 55 {
		t.Errorf("average TrainBox speedup = %.1f×, paper reports 44.4×", res.AvgTrainBox)
	}
	if res.AvgAcc < 2.5 || res.AvgAcc > 6 {
		t.Errorf("average B+Acc speedup = %.1f×, paper reports 3.32×", res.AvgAcc)
	}
	if res.MaxName != "TF-AA" {
		t.Errorf("max speedup on %s, paper reports TF-AA", res.MaxName)
	}
	if res.ClusteringGain < 8 || res.ClusteringGain > 16 {
		t.Errorf("clustering gain = %.1f×, paper reports 13.4×", res.ClusteringGain)
	}
}

func TestFig20GrowsWithBatch(t *testing.T) {
	res, err := Fig20()
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeedupAtLargest < 10 {
		t.Errorf("speedup at batch 8192 = %.1f×, want ≫10×", res.SpeedupAtLargest)
	}
	if len(res.Table.Rows) != 6 {
		t.Errorf("fig20 rows = %d, want 6", len(res.Table.Rows))
	}
}

func TestFig21ShapesForBothWorkloads(t *testing.T) {
	inc, err := Fig21("Inception-v4")
	if err != nil {
		t.Fatal(err)
	}
	// Inception: pool irrelevant (same final value).
	if math.Abs(inc.FinalByConfig["TrainBox"]-inc.FinalByConfig["TrainBox w/o prep-pool"]) > 1e-6 {
		t.Errorf("Inception pool should be irrelevant: %v vs %v",
			inc.FinalByConfig["TrainBox"], inc.FinalByConfig["TrainBox w/o prep-pool"])
	}
	// TrainBox reaches near the target; baseline saturates near 18.
	if inc.FinalByConfig["TrainBox"] < 240 {
		t.Errorf("Inception TrainBox = %.1f accel-equivalents, want ≈256", inc.FinalByConfig["TrainBox"])
	}
	if inc.FinalByConfig["Baseline (CPU)"] > 22 {
		t.Errorf("Inception baseline = %.1f, want ≈18.3", inc.FinalByConfig["Baseline (CPU)"])
	}

	sr, err := Fig21("TF-SR")
	if err != nil {
		t.Fatal(err)
	}
	// TF-SR: pool matters; baseline saturates ≈4.4.
	if sr.FinalByConfig["TrainBox"] <= sr.FinalByConfig["TrainBox w/o prep-pool"]*1.2 {
		t.Errorf("TF-SR pool should add clear throughput: %v vs %v",
			sr.FinalByConfig["TrainBox"], sr.FinalByConfig["TrainBox w/o prep-pool"])
	}
	if math.Abs(sr.FinalByConfig["Baseline (CPU)"]-4.4) > 1 {
		t.Errorf("TF-SR baseline = %.1f, want ≈4.4", sr.FinalByConfig["Baseline (CPU)"])
	}
	// FPGA prep dominates GPU prep.
	if sr.FinalByConfig["Baseline+Acc (FPGA)"] < sr.FinalByConfig["Baseline+Acc (GPU)"] {
		t.Error("FPGA prep should beat GPU prep for TF-SR")
	}
	if _, err := Fig21("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFig22Renders(t *testing.T) {
	tb, err := Fig22()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 { // 2 inputs × 4 architectures
		t.Errorf("fig22 rows = %d, want 8", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "TrainBox") {
		t.Error("fig22 missing TrainBox rung")
	}
}

// TestHeadlinesMatchExperimentsDoc pins every headline EXPERIMENTS.md's
// summary quotes to the digits it quotes them at, and checks the
// document carries those digits. The models are deterministic, so a
// calibration change that moves one fails here until the document is
// updated with it. The band tests above say what the paper allows;
// this says what the repo currently claims.
func TestHeadlinesMatchExperimentsDoc(t *testing.T) {
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	check(err)
	fig3, err := Fig3()
	check(err)
	fig5, err := Fig5(DefaultFig5Config())
	check(err)
	fig8, err := Fig8()
	check(err)
	fig9, err := Fig9()
	check(err)
	fig10, err := Fig10()
	check(err)
	fig19, err := Fig19()
	check(err)
	fig20, err := Fig20()
	check(err)
	fig21inc, err := Fig21("Inception-v4")
	check(err)
	fig21sr, err := Fig21("TF-SR")
	check(err)
	for _, h := range []struct {
		name, want string
		got        float64
	}{
		{"Fig 2b normalized ring latency at n=256", "2.065", Fig2b().NormalizedAt256},
		{"Fig 3 prep/others in final config", "34.49", fig3.FinalPrepOverOthers},
		{"Fig 5 augmentation accuracy gap (points)", "20.83", 100 * (fig5.FinalWith - fig5.FinalWithout)},
		{"Fig 8 baseline saturation (accel-equivalents)", "18.31", fig8.MaxSaturation},
		{"Fig 9 mean prep share at 256 accels (%)", "97.16", 100 * fig9.MeanPrepShare},
		{"Fig 10a max CPU requirement (× DGX-2)", "90.24", fig10.MaxCPU},
		{"Fig 10a max cores required", "4331.7", fig10.MaxCores},
		{"Fig 10b max memory requirement (× DGX-2)", "21.99", fig10.MaxMemory},
		{"Fig 10c max PCIe requirement (× DGX-2)", "10.39", fig10.MaxPCIe},
		{"Fig 19 avg TrainBox speedup", "44.54", fig19.AvgTrainBox},
		{"Fig 19 avg B+Acc speedup", "4.458", fig19.AvgAcc},
		{"Fig 19 clustering gain over B+Acc+P2P", "9.990", fig19.ClusteringGain},
		{"Fig 19 max speedup (TF-AA)", "90.24", fig19.MaxTrainBox},
		{"Fig 20 speedup at batch 8192", "31.19", fig20.SpeedupAtLargest},
		{"Fig 21 Inception-v4 TrainBox accel-equivalents", "255.5", fig21inc.FinalByConfig["TrainBox"]},
		{"Fig 21 TF-SR TrainBox accel-equivalents", "252.4", fig21sr.FinalByConfig["TrainBox"]},
	} {
		decimals := len(h.want) - strings.IndexByte(h.want, '.') - 1
		if got := strconv.FormatFloat(h.got, 'f', decimals, 64); got != h.want {
			t.Errorf("%s = %s, pinned %s — update EXPERIMENTS.md and this table together", h.name, got, h.want)
		}
		if !bytes.Contains(doc, []byte(h.want)) {
			t.Errorf("%s: EXPERIMENTS.md does not quote %s", h.name, h.want)
		}
	}
}
