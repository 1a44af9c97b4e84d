package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// Each serving workload reports its tail at one fixed percentile, and its
// measured phase runs until it has minSamples(pct) samples, so the
// percentile always has at least minBeyond samples beyond it and every run
// of a workload reports the same percentile.

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the 0-based nearest-rank index of the p-th percentile of n
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples lie after the p-th percentile's rank.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// minSamples is the smallest sample count with at least minBeyond
// samples beyond the p-th percentile, for p below 100.
func minSamples(p float64) int {
	n := 1
	for beyond(n, p) < minBeyond && n < 1<<24 {
		n++
	}
	return n
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencySummary is the latency block of a run record.
type latencySummary struct {
	Samples     int     `json:"samples"`
	P50Ms       float64 `json:"p50_ms"`
	TailMs      float64 `json:"tail_ms"`
	TailPct     float64 `json:"tail_percentile"`
	TailBeyond  int     `json:"tail_samples_beyond"`
	TailRuleMet bool    `json:"tail_rule_met"` // at least minBeyond samples beyond
	MaxMs       float64 `json:"max_ms"`
	MinMs       float64 `json:"min_ms"`
}

// summarize turns latencies in seconds into the record's latency block,
// with the tail at the nearest-rank tailPct-th percentile.
func summarize(latencies []float64, tailPct float64) latencySummary {
	s := sortedCopy(latencies)
	for i := range s {
		s[i] *= 1e3
	}
	n := len(s)
	return latencySummary{
		Samples:     n,
		P50Ms:       median(s),
		TailMs:      percentile(s, tailPct),
		TailPct:     tailPct,
		TailBeyond:  beyond(n, tailPct),
		TailRuleMet: beyond(n, tailPct) >= minBeyond,
		MaxMs:       s[n-1],
		MinMs:       s[0],
	}
}
