package main

import (
	"math"
	"slices"
)

// maxSamples bounds the preallocated latency slice of one connection.
// At the rates this benchmark reaches (≈ 20k calls/s over two
// connections) a 60 s window stays below it; samples past it are counted
// but not timed, and the report says how many.
const maxSamples = 500_000

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending sample slice: the smallest sample with at least p % of
// the samples at or below it. Exact, not interpolated — the slice holds
// every sample of the run.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// samplesBeyond is how many samples lie strictly above the p-th
// percentile's rank — what says whether the percentile is supported.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// median of a few per-episode values: the middle one, or the mean of the
// middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
