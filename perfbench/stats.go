package main

import (
	"math"
	"sort"
)

// tailSamples is the number of samples a reported tail percentile must
// have beyond it: a p99 needs at least 1000 samples, a p90 at least 100.
const tailSamples = 10

// reportable lists the percentiles a tail is reported at, highest first.
var reportable = []float64{99.9, 99, 90, 75, 50}

// beyond is the number of samples above percentile p of n, with a
// little slack for the rounding of p's decimal fraction.
func beyond(n int, p float64) float64 { return float64(n)*(100-p)/100 + 1e-9 }

// tailPercentile returns the highest reportable percentile that has at
// least tailSamples samples beyond it, for n samples. It returns 0 when
// n is too small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range reportable {
		if beyond(n, p) >= tailSamples {
			return p
		}
	}
	return 0
}

// supports reports whether n samples are enough to report percentile p.
func supports(n int, p float64) bool {
	return beyond(n, p) >= tailSamples
}

// percentile returns the p-th percentile (0..100) of sorted xs, by the
// nearest-rank rule. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
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
