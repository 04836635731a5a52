// Package stat holds the few order statistics both nmbench and the layer
// probe report, so the two cannot disagree on what "median" means.
package stat

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100),
// or 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// Tail returns the highest of the percentiles 99, 95, 90, 75 that has at
// least ten of xs beyond it, no higher than want, and which one it is. With
// fewer than forty samples no percentile qualifies: Tail then returns the
// maximum and p = 100.
func Tail(xs []float64, want float64) (value, p float64) {
	for _, p := range []float64{99, 95, 90, 75} {
		if p <= want && float64(len(xs))*(1-p/100) >= 10 {
			return Percentile(xs, p), p
		}
	}
	return Percentile(xs, 100), 100
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
