package core

import (
	"strings"
	"testing"

	"trainbox/internal/arch"
	"trainbox/internal/workload"
)

func TestExplainNamesTheBottleneck(t *testing.T) {
	w, _ := workload.ByName("Resnet-50")
	res := solve(t, arch.Baseline, 256, w)
	out := res.Explain()
	if !strings.Contains(out, "bound by host-cpu") {
		t.Errorf("explanation missing bottleneck:\n%s", out)
	}
	if !strings.Contains(out, "* host-cpu") {
		t.Errorf("bottleneck not marked:\n%s", out)
	}
	if !strings.Contains(out, "data preparation limits this system") {
		t.Errorf("regime line missing:\n%s", out)
	}
	// Constraints must appear tightest-first: the bottleneck is the
	// first listed entry.
	lines := strings.Split(out, "\n")
	if len(lines) < 3 || !strings.Contains(lines[1], "host-cpu") {
		t.Errorf("tightest constraint not first:\n%s", out)
	}
}

func TestExplainComputeBoundRegime(t *testing.T) {
	w, _ := workload.ByName("VGG-19")
	res := solve(t, arch.TrainBox, 256, w)
	if !strings.Contains(res.Explain(), "accelerators limit this system") {
		t.Errorf("compute-bound regime not reported:\n%s", res.Explain())
	}
}
