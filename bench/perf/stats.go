package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. Empty input yields 0.
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

// tailLadder is the descending ladder a tail percentile falls down until
// enough samples lie beyond it.
var tailLadder = []float64{95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// samplesBeyond is the number of samples strictly above the nearest-rank
// p-th percentile position.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - rank
}

// tailPercentile picks the highest rung of tailLadder, at or below want,
// that has at least minBeyond samples beyond it, and returns the rung with
// its value. With too few samples for any rung it falls to the median.
func tailPercentile(sorted []float64, want float64) (p, value float64) {
	for _, rung := range tailLadder {
		if rung > want {
			continue
		}
		if samplesBeyond(len(sorted), rung) >= minBeyond {
			return rung, percentile(sorted, rung)
		}
	}
	return 50, percentile(sorted, 50)
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v by the exclusive
// method Python's statistics.quantiles(v, n=4) uses, so the spreads the
// compare mode prints are the ones the benchmark driver computes. Fewer
// than two samples have no spread: both quartiles equal the sample.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k·(n+1)/4, 1-based; like Python, the index is clamped
		// before the interpolation weight is taken, so tiny samples
		// extrapolate instead of saturating.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadFrac is the interquartile distance as a share of the median (0 when
// the median is 0).
func spreadFrac(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}
