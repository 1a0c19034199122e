package core

import (
	"fmt"
	"sort"
	"strings"
)

// Explain renders a Result as a short human-readable analysis: the
// achieved throughput, the binding constraint, and every modelled
// constraint ordered from tightest to loosest with its headroom over the
// achieved rate.
func (r Result) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "throughput %.0f samples/s, bound by %s\n",
		float64(r.Throughput), r.Bottleneck)
	type entry struct {
		name string
		rate float64
	}
	entries := make([]entry, 0, len(r.Constraints))
	for name, rate := range r.Constraints {
		entries = append(entries, entry{name, float64(rate)})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].rate != entries[j].rate {
			return entries[i].rate < entries[j].rate
		}
		return entries[i].name < entries[j].name
	})
	for _, e := range entries {
		headroom := e.rate / float64(r.Throughput)
		marker := " "
		if e.name == r.Bottleneck {
			marker = "*"
		}
		if headroom > 1e6 {
			fmt.Fprintf(&sb, "  %s %-22s unconstrained\n", marker, e.name)
			continue
		}
		fmt.Fprintf(&sb, "  %s %-22s %12.0f samples/s (%.2f× headroom)\n",
			marker, e.name, e.rate, headroom)
	}
	if r.PrepBound {
		sb.WriteString("  data preparation limits this system (the paper's at-scale regime)\n")
	} else {
		sb.WriteString("  accelerators limit this system (the balanced regime TrainBox targets)\n")
	}
	return sb.String()
}
