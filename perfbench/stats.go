package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// fails when fewer than minTail samples lie beyond it, so a reported
// tail is never a single outlier.
func percentile(xs []float64, q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q*float64(n))) - 1 // index of the nearest rank
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
