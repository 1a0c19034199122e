package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (end-to-end metric, workload) row.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// interleave reports whether the two sides' repetitions overlap: false
// only when every value of one side beats every value of the other.
func interleave(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := quantile(a, 0), quantile(a, 1)
	minB, maxB := quantile(b, 0), quantile(b, 1)
	return !(maxA < minB || maxB < minA)
}

func relSpread(s summary) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

// verdict judges b against a under the metric's bound: unresolved when
// either side's inter-quartile spread exceeds the bound and the
// repetitions interleave; otherwise worse/better when the medians differ
// by more than the bound, else same.
func verdict(a, b summary, d metricDecl) string {
	if (relSpread(a) > d.Bound || relSpread(b) > d.Bound) && interleave(a.Values, b.Values) {
		return verdictUnresolved
	}
	switch w := worsening(a.Value, b.Value, d.Better); {
	case w > d.Bound:
		return verdictWorse
	case w < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

func loadResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// results files and reports whether B is acceptable against A: no
// `worse` row and no increase in the failed share.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b), nil
}

func compareResults(w io.Writer, a, b results) bool {
	ok := true
	fmt.Fprintf(w, "A: seed %d, %s, %d cpus, %s\nB: seed %d, %s, %d cpus, %s\n",
		a.Seed, a.Env.GitHead, a.Env.Nproc, a.Env.GoVersion, b.Seed, b.Env.GitHead, b.Env.Nproc, b.Env.GoVersion)
	fmt.Fprintf(w, "%-18s %-20s %12s %24s %12s %24s %16s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3 (n)", "B median", "B q1..q3 (n)", "B/A (base A)", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.EndToEnd[wl.Name], b.EndToEnd[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-18s missing from one side\n", wl.Name)
			ok = false
			continue
		}
		for _, d := range a.Bounds {
			sa, sb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			v := verdict(sa, sb, d)
			ok = ok && v != verdictWorse
			fmt.Fprintf(w, "%-18s %-20s %12.6g %24s %12.6g %24s %16s %6.2f  %s\n",
				wl.Name, d.Name, sa.Value, quartiles(sa), sb.Value, quartiles(sb),
				fmt.Sprintf("%.4f of %.6g", ratio(sb.Value, sa.Value), sa.Value), d.Bound, v)
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		v := verdictSame
		if fb > fa {
			v, ok = verdictWorse, false
		}
		fmt.Fprintf(w, "%-18s %-20s %12.6g %24s %12.6g %24s %16s %6s  %s\n", wl.Name, "failed_share",
			fa, fmt.Sprintf("%d of %d", ra.Failed, ra.Attempted), fb, fmt.Sprintf("%d of %d", rb.Failed, rb.Attempted), "-", "any", v)
	}
	return ok
}

func quartiles(s summary) string { return fmt.Sprintf("%.5g..%.5g (%d)", s.Q1, s.Q3, s.N) }
