package main

import (
	"math"
	"sort"
)

// minBeyond is the least number of samples a reported percentile must
// have above it; a percentile with fewer is noise from a handful of
// outliers.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads printed here match the ones an outside
// check computes. Fewer than two samples give the single value three
// times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// CPython's integer arithmetic, including its clamp of j to
		// [1, n-1] and the extrapolation that clamp implies.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// tailPercentile returns the nearest-rank p-th percentile of xs, lowered
// to the highest percentile that still has at least minBeyond samples
// above it. It reports the percentile actually used; ok is false when xs
// is too small for any such percentile (minBeyond samples or fewer).
func tailPercentile(xs []float64, p float64) (v, used float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	k := max(int(math.Ceil(p/100*float64(n)))-1, 0) // 0-based nearest rank
	if k <= n-1-minBeyond {
		return s[k], p, true
	}
	k = n - 1 - minBeyond
	return s[k], 100 * float64(k+1) / float64(n), true
}

// tailOrMax is tailPercentile, except that when xs is too small for any
// percentile with minBeyond samples above it, it returns the maximum and
// reports it as percentile 100 (0 for no samples).
func tailOrMax(xs []float64, p float64) (v, used float64) {
	if v, used, ok := tailPercentile(xs, p); ok {
		return v, used
	}
	return sorted(append(xs, 0))[len(xs)], 100
}
