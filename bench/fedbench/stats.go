package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs, which must be sorted
// ascending: the smallest sample with at least q·n samples at or below it.
// q ≤ 0 gives the minimum; an empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1]
}

// tailLadder is the percentile ladder the tail rule climbs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest ladder percentile that has at least ten
// samples beyond its nearest rank among n samples, or 0 when even the median
// has fewer. A tail quantile with fewer samples beyond it is a single outlier,
// not a distribution.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}

// median returns the middle value of xs (the mean of the middle pair for an
// even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), which is how run-to-run
// spread is judged, so the benchmark reports the same spread a reader
// computes. Fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median (0 when
// the median is 0).
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
