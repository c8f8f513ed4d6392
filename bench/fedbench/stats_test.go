package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ten, 0, 1},
		{ten, 0.1, 1},
		{ten, 0.11, 2},
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 0.91, 10},
		{ten, 0.99, 10},
		{ten, 1, 10},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.999, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0}, // ceil(9.5) = 10 at or below the median leaves 9 beyond it
		{20, 0.5},
		{99, 0.5},
		{100, 0.9},
		{999, 0.9}, // rank 990 leaves 9 beyond p99
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
		{100000, 0.9999},
		{10000000, 0.9999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		med, q1, q3    float64
		spreadOfMedian float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25, 1},
		{[]float64{4, 3, 2, 1}, 2.5, 1.25, 3.75, 1},
		{[]float64{5, 4, 3, 2, 1}, 3, 1.5, 4.5, 1},
		{[]float64{3, 1}, 2, 0.5, 3.5, 1.5},
		{[]float64{2}, 2, 2, 2, 0},
		{[]float64{100, 101, 99, 100, 102, 98, 100, 100, 101, 99}, 100, 99, 101, 0.02},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if got := spread(tc.xs); math.Abs(got-tc.spreadOfMedian) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.spreadOfMedian)
		}
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("an empty set must have median and spread 0")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median and quartiles reordered their input: %v", xs)
	}
}
