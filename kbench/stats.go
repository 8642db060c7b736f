package main

import "slices"

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile returns the highest whole percentile of xs that has at
// least ten values beyond it, with its nearest-rank value. With fewer than
// forty values there is no tail worth the name and ok is false.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < 40 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pct = 100 * (n - 10) / n
	rank := (pct*n + 99) / 100 // ⌈pct·n/100⌉, so n − rank ≥ 10
	return pct, s[rank-1], true
}

// maxOf returns the largest of xs (0 for none).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
