package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of values by linear
// interpolation between order statistics; 0 for an empty input.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// percentile is the nearest-rank p-th percentile (0 < p ≤ 1): the
// smallest value with at least p·n of the sample at or below it. Used
// for latencies, where an interpolated value nobody observed would hide
// the tail.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9)) // p·n is rarely exact in floating point
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// percentileSupported reports whether n samples leave at least ten
// beyond the p-th percentile — the rule for the highest percentile a
// sample may be summarized by.
func percentileSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

// summary is one metric's repetitions reduced to what a reader and
// -compare need: the median, the quartiles, and the raw values.
type summary struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64, unit string) summary {
	return summary{
		Value: median(values), Unit: unit,
		Q1: quantile(values, 0.25), Q3: quantile(values, 0.75),
		N: len(values), Values: values,
	}
}

// single wraps a metric measured once per run (a count, or a quantile
// the run already took over many operations).
func single(v float64, unit string) summary { return summarize([]float64{v}, unit) }

func sum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}
