package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, schema string, throughput map[string]float64) string {
	t.Helper()
	data, err := json.Marshal(benchFile{Schema: schema, Throughput: throughput})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := map[string]float64{"a": 100, "b": 100, "c": 100}
	cur := map[string]float64{"a": 80, "b": 70, "c": 130}
	byName := map[string]delta{}
	for _, d := range compare(base, cur, 0.25) {
		byName[d.Name] = d
	}
	if byName["a"].Regressed {
		t.Error("a dropped 20% < threshold, must pass")
	}
	if !byName["b"].Regressed {
		t.Error("b dropped 30% > threshold, must regress")
	}
	if byName["c"].Regressed {
		t.Error("c improved, must pass")
	}
}

func TestCompareMissingMetricFails(t *testing.T) {
	deltas := compare(map[string]float64{"gone": 50}, map[string]float64{}, 0.25)
	if len(deltas) != 1 || !deltas[0].Missing {
		t.Fatalf("deltas = %+v, want one missing", deltas)
	}
}

// TestCompareNewMetricInformational: metrics only in the current report
// are surfaced as New — listed after the tracked metrics, never flagged
// as regressed or missing.
func TestCompareNewMetricInformational(t *testing.T) {
	deltas := compare(map[string]float64{"a": 1}, map[string]float64{"a": 1, "zz": 9, "bb": 4}, 0.25)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %+v, want tracked + 2 new", deltas)
	}
	if deltas[0].Name != "a" || deltas[0].New {
		t.Errorf("tracked metric mangled: %+v", deltas[0])
	}
	// New metrics follow the tracked ones, themselves sorted.
	if deltas[1].Name != "bb" || deltas[2].Name != "zz" {
		t.Errorf("new metrics out of order: %+v", deltas[1:])
	}
	for _, d := range deltas[1:] {
		if !d.New || d.Regressed || d.Missing {
			t.Errorf("new metric misclassified: %+v", d)
		}
		if d.Current == 0 {
			t.Errorf("new metric lost its value: %+v", d)
		}
	}
}

func TestCompareDeterministicOrder(t *testing.T) {
	base := map[string]float64{"z": 1, "a": 1, "m": 1}
	deltas := compare(base, base, 0.25)
	if deltas[0].Name != "a" || deltas[1].Name != "m" || deltas[2].Name != "z" {
		t.Fatalf("order = %v, want sorted", deltas)
	}
}

// TestRunExitCodes drives the gate end-to-end through real files: pass,
// regression, missing metric, schema mismatch, empty baseline.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", "trainbox-bench/v1",
		map[string]float64{"executor_image_samples_per_sec": 1000})

	ok := writeReport(t, dir, "ok.json", "trainbox-bench/v1",
		map[string]float64{"executor_image_samples_per_sec": 900})
	if code, out := run(base, ok, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("10%% drop: exit %d, output:\n%s", code, out)
	}

	bad := writeReport(t, dir, "bad.json", "trainbox-bench/v1",
		map[string]float64{"executor_image_samples_per_sec": 500})
	code, out := run(base, bad, 0.25, 0.25, 0.5, 0.25, 0.25)
	if code != 1 {
		t.Errorf("50%% drop: exit %d, want 1", code)
	}
	if !strings.Contains(out, "REGRESSED") {
		t.Errorf("output does not flag the regression:\n%s", out)
	}

	empty := writeReport(t, dir, "empty.json", "trainbox-bench/v1", map[string]float64{})
	if code, _ := run(base, empty, 0.25, 0.25, 0.5, 0.25, 0.25); code != 1 {
		t.Errorf("missing tracked metric: exit %d, want 1", code)
	}

	wrong := writeReport(t, dir, "wrong.json", "somethingelse/v9",
		map[string]float64{"executor_image_samples_per_sec": 1000})
	if code, _ := run(base, wrong, 0.25, 0.25, 0.5, 0.25, 0.25); code != 2 {
		t.Errorf("schema mismatch: exit %d, want 2", code)
	}

	if code, _ := run(empty, ok, 0.25, 0.25, 0.5, 0.25, 0.25); code != 2 {
		t.Errorf("empty baseline: exit %d, want 2", code)
	}

	if code, _ := run(base, filepath.Join(dir, "nope.json"), 0.25, 0.25, 0.5, 0.25, 0.25); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}

	if code, _ := run(base, ok, 1.5, 0.25, 0.5, 0.25, 0.25); code != 2 {
		t.Errorf("bad threshold: exit %d, want 2", code)
	}

	// New metrics in the current report are informational: the gate still
	// passes, and the output names them so regenerating the baseline is an
	// obvious next step.
	grown := writeReport(t, dir, "grown.json", "trainbox-bench/v1",
		map[string]float64{"executor_image_samples_per_sec": 950, "pool_degraded_samples_per_sec": 500})
	code, out = run(base, grown, 0.25, 0.25, 0.5, 0.25, 0.25)
	if code != 0 {
		t.Errorf("new metric failed the gate: exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "pool_degraded_samples_per_sec") || !strings.Contains(out, "new (untracked)") {
		t.Errorf("new metric not surfaced as informational:\n%s", out)
	}

	// A run that both regresses and grows still fails — new metrics never
	// mask a regression.
	grownBad := writeReport(t, dir, "grownbad.json", "trainbox-bench/v1",
		map[string]float64{"executor_image_samples_per_sec": 500, "pool_degraded_samples_per_sec": 500})
	if code, _ := run(base, grownBad, 0.25, 0.25, 0.5, 0.25, 0.25); code != 1 {
		t.Errorf("regression masked by new metric: exit %d, want 1", code)
	}
}

func writeReportK(t *testing.T, dir, name string, throughput map[string]float64, kernels map[string]kernelStat) string {
	t.Helper()
	data, err := json.Marshal(benchFile{Schema: "trainbox-bench/v1.1", Throughput: throughput, Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareKernelsAllocGate covers the allocation gate's arms:
// tolerated growth, regression past the threshold, the zero-baseline
// invariant, improvement, and missing/new kernels.
func TestCompareKernelsAllocGate(t *testing.T) {
	base := map[string]kernelStat{
		"a":    {NsPerSample: 100, AllocsPerSample: 100},
		"b":    {NsPerSample: 100, AllocsPerSample: 100},
		"zero": {NsPerSample: 100, AllocsPerSample: 0},
		"gone": {NsPerSample: 100, AllocsPerSample: 10},
	}
	cur := map[string]kernelStat{
		"a":    {NsPerSample: 900, AllocsPerSample: 120}, // +20% allocs, 9× slower: ns never gates
		"b":    {NsPerSample: 10, AllocsPerSample: 130},  // +30% allocs
		"zero": {NsPerSample: 100, AllocsPerSample: 1},   // zero-alloc invariant broken
		"new":  {NsPerSample: 1, AllocsPerSample: 1},
	}
	byName := map[string]kernelDelta{}
	for _, d := range compareKernels(base, cur, 0.25) {
		byName[d.Name] = d
	}
	if byName["a"].Regressed {
		t.Error("a grew 20% < threshold, must pass")
	}
	if !byName["b"].Regressed {
		t.Error("b grew 30% > threshold, must regress")
	}
	if !byName["zero"].Regressed {
		t.Error("zero-alloc kernel allocated, must regress")
	}
	if !byName["gone"].Missing {
		t.Error("dropped kernel must be flagged missing")
	}
	if d := byName["new"]; !d.New || d.Regressed || d.Missing {
		t.Errorf("new kernel misclassified: %+v", d)
	}

	// An improvement (fewer allocs) never regresses.
	better := compareKernels(
		map[string]kernelStat{"k": {AllocsPerSample: 100}},
		map[string]kernelStat{"k": {AllocsPerSample: 3}}, 0.25)
	if better[0].Regressed {
		t.Error("allocation improvement flagged as regression")
	}
}

// TestCompareLatencyGate covers the latency gate's arms: lower is
// better, tolerated growth passes, growth past the threshold
// regresses, improvement passes, and missing/new metrics are
// classified like the other gates.
func TestCompareLatencyGate(t *testing.T) {
	base := map[string]float64{
		"a":    1000,
		"b":    1000,
		"c":    1000,
		"gone": 1000,
	}
	cur := map[string]float64{
		"a":   1400, // +40% < 50% threshold
		"b":   1600, // +60% > threshold
		"c":   200,  // faster: never regresses
		"new": 5,
	}
	byName := map[string]delta{}
	for _, d := range compareLatency(base, cur, 0.5) {
		byName[d.Name] = d
	}
	if byName["a"].Regressed {
		t.Error("a grew 40% < threshold, must pass")
	}
	if !byName["b"].Regressed {
		t.Error("b grew 60% > threshold, must regress")
	}
	if byName["c"].Regressed {
		t.Error("c improved, must pass")
	}
	if !byName["gone"].Missing {
		t.Error("dropped latency metric must be flagged missing")
	}
	if d := byName["new"]; !d.New || d.Regressed || d.Missing {
		t.Errorf("new latency metric misclassified: %+v", d)
	}
}

func writeReportL(t *testing.T, dir, name string, throughput, latency map[string]float64) string {
	t.Helper()
	data, err := json.Marshal(benchFile{Schema: "trainbox-bench/v1.2", Throughput: throughput, Latency: latency})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunLatencyGateEndToEnd drives the latency gate through real
// files: checkpoint-restore growth past the threshold fails the run
// even when throughput is healthy, and a pre-latency baseline gates
// nothing until regenerated.
func TestRunLatencyGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tp := map[string]float64{"executor_image_samples_per_sec": 1000}
	base := writeReportL(t, dir, "base.json", tp,
		map[string]float64{"checkpoint_restore_ns": 10000})

	ok := writeReportL(t, dir, "ok.json", tp,
		map[string]float64{"checkpoint_restore_ns": 12000})
	if code, out := run(base, ok, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("+20%% latency: exit %d, output:\n%s", code, out)
	}

	bad := writeReportL(t, dir, "bad.json", tp,
		map[string]float64{"checkpoint_restore_ns": 40000})
	code, out := run(base, bad, 0.25, 0.25, 0.5, 0.25, 0.25)
	if code != 1 {
		t.Errorf("4x latency: exit %d, want 1", code)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "checkpoint_restore_ns") {
		t.Errorf("output does not flag the latency regression:\n%s", out)
	}

	// Dropping the tracked latency metric fails.
	dropped := writeReportL(t, dir, "dropped.json", tp, map[string]float64{})
	if code, _ := run(base, dropped, 0.25, 0.25, 0.5, 0.25, 0.25); code != 1 {
		t.Errorf("dropped latency metric: exit %d, want 1", code)
	}

	// A v1.1 baseline with no latency map still gates throughput and
	// kernels only; the new metric is informational.
	v11 := writeReport(t, dir, "v11.json", "trainbox-bench/v1.1", tp)
	if code, out := run(v11, bad, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("v1.1 baseline must not gate latency: exit %d, output:\n%s", code, out)
	}

	if code, _ := run(base, ok, 0.25, 0.25, -0.1, 0.25, 0.25); code != 2 {
		t.Errorf("negative latency-threshold: exit %d, want 2", code)
	}
}

// TestCompareCacheGate covers the cache gate's arms in both
// directions: tolerated moves pass, moves past the threshold in the
// row's own bad direction regress, improvements never regress, and
// missing/new rows are classified like the other gates.
func TestCompareCacheGate(t *testing.T) {
	base := map[string]cacheRow{
		"hit_rate_ok":   {Value: 0.9, HigherIsBetter: true},
		"hit_rate_bad":  {Value: 0.9, HigherIsBetter: true},
		"decodes_ok":    {Value: 8, HigherIsBetter: false},
		"decodes_bad":   {Value: 8, HigherIsBetter: false},
		"decodes_down":  {Value: 8, HigherIsBetter: false},
		"amort_up":      {Value: 4, HigherIsBetter: true},
		"zero_decodes":  {Value: 0, HigherIsBetter: false},
		"zero_hit_rate": {Value: 0, HigherIsBetter: true},
		"gone":          {Value: 1, HigherIsBetter: true},
	}
	cur := map[string]cacheRow{
		"hit_rate_ok":   {Value: 0.8, HigherIsBetter: true}, // −11% > −25%: passes
		"hit_rate_bad":  {Value: 0.5, HigherIsBetter: true}, // −44%: regresses
		"decodes_ok":    {Value: 9, HigherIsBetter: false},  // +12.5% < 25%: passes
		"decodes_bad":   {Value: 12, HigherIsBetter: false}, // +50%: regresses
		"decodes_down":  {Value: 1, HigherIsBetter: false},  // improvement
		"amort_up":      {Value: 12, HigherIsBetter: true},  // improvement
		"zero_decodes":  {Value: 3, HigherIsBetter: false},  // zero baseline crossed upward
		"zero_hit_rate": {Value: 0.5, HigherIsBetter: true}, // zero baseline improved
		"new":           {Value: 1, HigherIsBetter: true},
	}
	byName := map[string]cacheDelta{}
	for _, d := range compareCache(base, cur, 0.25) {
		byName[d.Name] = d
	}
	if byName["hit_rate_ok"].Regressed {
		t.Error("hit rate dropped 11% < threshold, must pass")
	}
	if !byName["hit_rate_bad"].Regressed {
		t.Error("hit rate dropped 44% > threshold, must regress")
	}
	if byName["decodes_ok"].Regressed {
		t.Error("decodes grew 12.5% < threshold, must pass")
	}
	if !byName["decodes_bad"].Regressed {
		t.Error("decodes grew 50% > threshold, must regress")
	}
	if byName["decodes_down"].Regressed || byName["amort_up"].Regressed {
		t.Error("improvements flagged as regressions")
	}
	if !byName["zero_decodes"].Regressed {
		t.Error("zero lower-is-better baseline crossed, must regress")
	}
	if byName["zero_hit_rate"].Regressed {
		t.Error("zero higher-is-better baseline improved, must pass")
	}
	if !byName["gone"].Missing {
		t.Error("dropped cache row must be flagged missing")
	}
	if d := byName["new"]; !d.New || d.Regressed || d.Missing {
		t.Errorf("new cache row misclassified: %+v", d)
	}
}

func writeReportC(t *testing.T, dir, name string, throughput map[string]float64, dscache map[string]cacheRow) string {
	t.Helper()
	data, err := json.Marshal(benchFile{Schema: "trainbox-bench/v1.3", Throughput: throughput, DSCache: dscache})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunCacheGateEndToEnd drives the cache gate through real files: a
// hit-rate collapse fails the run even when throughput is healthy, a
// pre-cache baseline gates nothing until regenerated, and a negative
// threshold is bad input.
func TestRunCacheGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tp := map[string]float64{"executor_image_samples_per_sec": 1000}
	base := writeReportC(t, dir, "base.json", tp, map[string]cacheRow{
		"dscache_hit_rate":                     {Value: 0.9, HigherIsBetter: true},
		"dscache_decodes_per_epoch_4consumers": {Value: 8, HigherIsBetter: false},
	})

	ok := writeReportC(t, dir, "ok.json", tp, map[string]cacheRow{
		"dscache_hit_rate":                     {Value: 0.85, HigherIsBetter: true},
		"dscache_decodes_per_epoch_4consumers": {Value: 8, HigherIsBetter: false},
	})
	if code, out := run(base, ok, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("small hit-rate dip: exit %d, output:\n%s", code, out)
	}

	bad := writeReportC(t, dir, "bad.json", tp, map[string]cacheRow{
		"dscache_hit_rate":                     {Value: 0.2, HigherIsBetter: true},
		"dscache_decodes_per_epoch_4consumers": {Value: 32, HigherIsBetter: false},
	})
	code, out := run(base, bad, 0.25, 0.25, 0.5, 0.25, 0.25)
	if code != 1 {
		t.Errorf("hit-rate collapse: exit %d, want 1", code)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "dscache_hit_rate") {
		t.Errorf("output does not flag the cache regression:\n%s", out)
	}

	// Dropping a tracked cache row fails — coverage cannot silently
	// shrink.
	dropped := writeReportC(t, dir, "dropped.json", tp, map[string]cacheRow{})
	if code, _ := run(base, dropped, 0.25, 0.25, 0.5, 0.25, 0.25); code != 1 {
		t.Errorf("dropped cache row: exit %d, want 1", code)
	}

	// A v1.2 baseline with no dscache map still gates the older
	// sections only; the new rows are informational.
	v12 := writeReport(t, dir, "v12.json", "trainbox-bench/v1.2", tp)
	if code, out := run(v12, bad, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("v1.2 baseline must not gate cache rows: exit %d, output:\n%s", code, out)
	}

	if code, _ := run(base, ok, 0.25, 0.25, 0.5, -0.1, 0.25); code != 2 {
		t.Errorf("negative cache-threshold: exit %d, want 2", code)
	}
}

// TestRunKernelGateEndToEnd drives the allocation gate through real
// files: growth past the threshold fails the run even when every
// throughput metric is healthy.
func TestRunKernelGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tp := map[string]float64{"executor_image_samples_per_sec": 1000}
	base := writeReportK(t, dir, "base.json", tp,
		map[string]kernelStat{"prepare_image": {NsPerSample: 5000, AllocsPerSample: 4}})

	ok := writeReportK(t, dir, "ok.json", tp,
		map[string]kernelStat{"prepare_image": {NsPerSample: 9000, AllocsPerSample: 4}})
	if code, out := run(base, ok, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("unchanged allocs: exit %d, output:\n%s", code, out)
	}

	bad := writeReportK(t, dir, "bad.json", tp,
		map[string]kernelStat{"prepare_image": {NsPerSample: 5000, AllocsPerSample: 400}})
	code, out := run(base, bad, 0.25, 0.25, 0.5, 0.25, 0.25)
	if code != 1 {
		t.Errorf("100× alloc growth: exit %d, want 1", code)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "prepare_image") {
		t.Errorf("output does not flag the alloc regression:\n%s", out)
	}

	// Dropping a tracked kernel fails — coverage cannot silently shrink.
	dropped := writeReportK(t, dir, "dropped.json", tp, map[string]kernelStat{})
	if code, _ := run(base, dropped, 0.25, 0.25, 0.5, 0.25, 0.25); code != 1 {
		t.Errorf("dropped kernel: exit %d, want 1", code)
	}

	// A v1 baseline with no kernels still gates throughput only — the
	// kernel gate activates once a regenerated baseline tracks kernels.
	v1 := writeReport(t, dir, "v1.json", "trainbox-bench/v1", tp)
	if code, out := run(v1, bad, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("v1 baseline must not gate kernels: exit %d, output:\n%s", code, out)
	}

	if code, _ := run(base, ok, 0.25, -0.1, 0.5, 0.25, 0.25); code != 2 {
		t.Errorf("negative alloc-threshold: exit %d, want 2", code)
	}
}

func writeReportS(t *testing.T, dir, name string, throughput map[string]float64, sync map[string]cacheRow) string {
	t.Helper()
	data, err := json.Marshal(benchFile{Schema: "trainbox-bench/v1.4", Throughput: throughput, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSyncGateEndToEnd drives the sync gate through real files: a
// bit-identity break or a latency blow-up fails the run even when
// throughput is healthy, a pre-sync baseline gates nothing until
// regenerated, and a negative threshold is bad input.
func TestRunSyncGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tp := map[string]float64{"executor_image_samples_per_sec": 1000}
	base := writeReportS(t, dir, "base.json", tp, map[string]cacheRow{
		"sync_backends_bit_identical": {Value: 1, HigherIsBetter: true},
		"sync_ring_latency_ms_256":    {Value: 2.2, HigherIsBetter: false},
	})

	ok := writeReportS(t, dir, "ok.json", tp, map[string]cacheRow{
		"sync_backends_bit_identical": {Value: 1, HigherIsBetter: true},
		"sync_ring_latency_ms_256":    {Value: 2.4, HigherIsBetter: false},
	})
	if code, out := run(base, ok, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("small latency move: exit %d, output:\n%s", code, out)
	}

	// A backend losing bit-identity drops the flag from 1 to 0 — a 100%
	// move in the bad direction.
	bad := writeReportS(t, dir, "bad.json", tp, map[string]cacheRow{
		"sync_backends_bit_identical": {Value: 0, HigherIsBetter: true},
		"sync_ring_latency_ms_256":    {Value: 9.9, HigherIsBetter: false},
	})
	code, out := run(base, bad, 0.25, 0.25, 0.5, 0.25, 0.25)
	if code != 1 {
		t.Errorf("bit-identity break: exit %d, want 1", code)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "sync_backends_bit_identical") {
		t.Errorf("output does not flag the sync regression:\n%s", out)
	}
	if !strings.Contains(out, "sync row(s) moved") {
		t.Errorf("summary does not name the sync gate:\n%s", out)
	}

	// Dropping a tracked sync row fails — coverage cannot silently
	// shrink.
	dropped := writeReportS(t, dir, "dropped.json", tp, map[string]cacheRow{})
	if code, _ := run(base, dropped, 0.25, 0.25, 0.5, 0.25, 0.25); code != 1 {
		t.Errorf("dropped sync row: exit %d, want 1", code)
	}

	// A v1.3 baseline with no sync map still gates the older sections
	// only; the new rows are informational.
	v13 := writeReport(t, dir, "v13.json", "trainbox-bench/v1.3", tp)
	if code, out := run(v13, bad, 0.25, 0.25, 0.5, 0.25, 0.25); code != 0 {
		t.Errorf("v1.3 baseline must not gate sync rows: exit %d, output:\n%s", code, out)
	}

	if code, _ := run(base, ok, 0.25, 0.25, 0.5, 0.25, -0.1); code != 2 {
		t.Errorf("negative sync-threshold: exit %d, want 2", code)
	}
}
