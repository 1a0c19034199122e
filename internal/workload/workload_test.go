package workload

import (
	"math"
	"testing"

	"trainbox/internal/units"
)

func TestWorkloadsMatchTableI(t *testing.T) {
	ws := Workloads()
	if len(ws) != 7 {
		t.Fatalf("workload count = %d, want 7", len(ws))
	}
	// Table I verbatim: name, batch, model MB, throughput.
	want := []struct {
		name  string
		batch int
		mb    float64
		rate  float64
		typ   InputType
	}{
		{"VGG-19", 2048, 548.0, 3062, Image},
		{"Resnet-50", 8192, 97.5, 7431, Image},
		{"Inception-v4", 2048, 162.7, 1669, Image},
		{"RNN-S", 4096, 1.0, 12022, Image},
		{"RNN-L", 2048, 16.0, 6495, Image},
		{"TF-SR", 512, 268.3, 2001, Audio},
		{"TF-AA", 512, 162.5, 2889, Audio},
	}
	for i, w := range ws {
		e := want[i]
		if w.Name != e.name || w.BatchSize != e.batch || w.Type != e.typ {
			t.Errorf("row %d = %s/%d/%v, want %s/%d/%v", i, w.Name, w.BatchSize, w.Type, e.name, e.batch, e.typ)
		}
		if math.Abs(float64(w.ModelBytes)-e.mb*1e6) > 1 {
			t.Errorf("%s model bytes = %v, want %v MB", w.Name, w.ModelBytes, e.mb)
		}
		if float64(w.AccelRate) != e.rate {
			t.Errorf("%s rate = %v, want %v", w.Name, w.AccelRate, e.rate)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("Resnet-50")
	if err != nil || w.Name != "Resnet-50" {
		t.Errorf("ByName: %v %v", w.Name, err)
	}
	if _, err := ByName("GPT-7"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestBaselineSaturationAnchors(t *testing.T) {
	// The calibrated CPU costs must reproduce the paper's saturation
	// points: Inception-v4 at ≈18.3 accelerators, TF-SR at ≈4.4
	// (Figure 21), everything within Figure 8's "after 18" bound.
	const cores = 48.0
	sat := func(name string) float64 {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return cores / (float64(w.AccelRate) * w.Prep.TotalCPUSeconds())
	}
	if got := sat("Inception-v4"); math.Abs(got-18.3) > 0.5 {
		t.Errorf("Inception-v4 saturation = %.1f accels, want ≈18.3", got)
	}
	if got := sat("TF-SR"); math.Abs(got-4.4) > 0.3 {
		t.Errorf("TF-SR saturation = %.1f accels, want ≈4.4", got)
	}
	for _, w := range Workloads() {
		if got := sat(w.Name); got > 19 {
			t.Errorf("%s saturates at %.1f accels, above Figure 8's ≈18 bound", w.Name, got)
		}
	}
}

func TestAudioPrepCostsMoreCPUThanImage(t *testing.T) {
	// Section VI-D: "the audio preparation requires much higher
	// computation capability than images".
	var maxImage, minAudio float64 = 0, math.Inf(1)
	for _, w := range Workloads() {
		c := w.Prep.TotalCPUSeconds()
		if w.Type == Image && c > maxImage {
			maxImage = c
		}
		if w.Type == Audio && c < minAudio {
			minAudio = c
		}
	}
	if minAudio < 2*maxImage {
		t.Errorf("audio prep %.2g s should far exceed image prep %.2g s", minAudio, maxImage)
	}
}

func TestMemoryDecompositionSharesMatchFigure11(t *testing.T) {
	// Figure 11: data load ≈36.7% (image) and ≈21.1% (audio) of memory
	// traffic; formatting+augmentation ≈59.2% / 71.9%.
	img, _ := ByName("Resnet-50")
	aud, _ := ByName("TF-SR")
	share := func(p PrepProfile, ops ...PrepOp) float64 {
		var s units.Bytes
		for _, op := range ops {
			s += p.MemoryBytes[op]
		}
		return float64(s) / float64(p.TotalMemoryBytes())
	}
	if got := share(img.Prep, OpLoad); math.Abs(got-0.367) > 0.05 {
		t.Errorf("image data-load memory share = %.3f, want ≈0.367", got)
	}
	if got := share(img.Prep, OpFormat, OpAugment); math.Abs(got-0.592) > 0.05 {
		t.Errorf("image fmt+aug memory share = %.3f, want ≈0.592", got)
	}
	if got := share(aud.Prep, OpLoad); math.Abs(got-0.211) > 0.04 {
		t.Errorf("audio data-load memory share = %.3f, want ≈0.211", got)
	}
	if got := share(aud.Prep, OpFormat, OpAugment); math.Abs(got-0.719) > 0.05 {
		t.Errorf("audio fmt+aug memory share = %.3f, want ≈0.719", got)
	}
}

func TestTensorSizesMatchDatasetGeometry(t *testing.T) {
	res, _ := ByName("Resnet-50")
	if res.Prep.TensorBytes != 602112 {
		t.Errorf("ResNet tensor = %v, want 602112 (224×224×3×4)", res.Prep.TensorBytes)
	}
	inc, _ := ByName("Inception-v4")
	if inc.Prep.TensorBytes != 1072812 {
		t.Errorf("Inception tensor = %v, want 1072812 (299×299×3×4)", inc.Prep.TensorBytes)
	}
	if res.Prep.StoredBytes >= res.Prep.TensorBytes {
		t.Error("stored JPEG should be smaller than the decoded tensor")
	}
}

func TestEffectiveAccelRate(t *testing.T) {
	w, _ := ByName("Resnet-50")
	// At the Table I batch, exactly the Table I rate.
	if got := w.EffectiveAccelRate(w.BatchSize); math.Abs(float64(got-w.AccelRate)) > 1e-9 {
		t.Errorf("rate at table batch = %v, want %v", got, w.AccelRate)
	}
	// Monotone in batch size.
	prev := units.SamplesPerSec(0)
	for _, b := range []int{8, 32, 128, 512, 2048, 8192} {
		r := w.EffectiveAccelRate(b)
		if r <= prev {
			t.Errorf("rate not increasing at batch %d: %v ≤ %v", b, r, prev)
		}
		prev = r
	}
	// Tiny batches run far below peak.
	if r := w.EffectiveAccelRate(8); float64(r) > 0.2*float64(w.AccelRate) {
		t.Errorf("batch-8 rate = %v, should be far below peak %v", r, w.AccelRate)
	}
	if w.EffectiveAccelRate(0) != 0 {
		t.Error("zero batch should give zero rate")
	}
}

func TestPrepProfileTotals(t *testing.T) {
	w, _ := ByName("VGG-19")
	p := w.Prep
	var cpu float64
	var mem units.Bytes
	for op := range p.CPUSeconds {
		cpu += p.CPUSeconds[op]
		mem += p.MemoryBytes[op]
	}
	if math.Abs(cpu-p.TotalCPUSeconds()) > 1e-12 {
		t.Error("CPU total mismatch")
	}
	if math.Abs(float64(mem-p.TotalMemoryBytes())) > 1e-6 {
		t.Error("memory total mismatch")
	}
}

func TestValidateCatchesBrokenWorkloads(t *testing.T) {
	good, _ := ByName("RNN-S")
	cases := []func(*Workload){
		func(w *Workload) { w.Name = "" },
		func(w *Workload) { w.BatchSize = 0 },
		func(w *Workload) { w.ModelBytes = 0 },
		func(w *Workload) { w.AccelRate = 0 },
		func(w *Workload) { w.Prep.StoredBytes = 0 },
		func(w *Workload) { w.Prep.CPUSeconds = [numPrepOps]float64{} },
		func(w *Workload) { w.BatchHalfSat = 0 },
	}
	for i, mutate := range cases {
		w := good
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPrepOpStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range PrepOps() {
		s := op.String()
		if s == "" || seen[s] {
			t.Errorf("op %d has empty/duplicate name %q", op, s)
		}
		seen[s] = true
	}
	if len(PrepOps()) != int(numPrepOps) {
		t.Error("PrepOps misses categories")
	}
}

func TestHardwareTrendsShape(t *testing.T) {
	tr := HardwareTrends()
	if len(tr) != 8 || tr[0].Year != 2012 || tr[len(tr)-1].Year != 2019 {
		t.Fatalf("trend span wrong: %+v", tr)
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].ASIC < tr[i-1].ASIC || tr[i].Interconnect < tr[i-1].Interconnect {
			t.Errorf("trend not monotone at %d", tr[i].Year)
		}
		if tr[i].Year != tr[i-1].Year+1 {
			t.Errorf("missing year before %d", tr[i].Year)
		}
	}
	last := tr[len(tr)-1]
	if last.ASIC < 1e4 {
		t.Errorf("2019 ASIC trend = %v, paper reports >10,000×", last.ASIC)
	}
}

func TestTargetScale(t *testing.T) {
	if TargetAccelerators != 256 {
		t.Errorf("target = %d, want 256", TargetAccelerators)
	}
}
