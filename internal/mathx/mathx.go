// Package mathx provides small numeric helpers shared across the HEBS
// code base: clamping, interpolation, running statistics and a few
// vector kernels. Everything operates on float64 or int and has no
// dependencies beyond the standard library.
package mathx

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions over empty slices.
var ErrEmpty = errors.New("mathx: empty input")

// Clamp limits v to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("mathx: Clamp with lo > hi")
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt limits v to the closed interval [lo, hi]. It panics if lo > hi.
func ClampInt(v, lo, hi int) int {
	if lo > hi {
		panic("mathx: ClampInt with lo > hi")
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Lerp linearly interpolates between a and b by t (t=0 gives a, t=1 gives b).
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// InvLerp returns the parameter t such that Lerp(a, b, t) == v.
// It panics if a == b.
func InvLerp(a, b, v float64) float64 {
	//hebslint:allow floateq exact guard against division by zero
	if a == b {
		panic("mathx: InvLerp with a == b")
	}
	return (v - a) / (b - a)
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs (divides by n, not n-1),
// matching the convention used by the Universal Image Quality Index.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)), nil
}

// Covariance returns the population covariance of xs and ys.
// The slices must be the same non-zero length.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ys) {
		return 0, errors.New("mathx: Covariance length mismatch")
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)), nil
}

// Stats accumulates count, mean and variance in a single pass using
// Welford's algorithm. The zero value is ready to use.
type Stats struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (s *Stats) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of samples folded in so far.
func (s *Stats) N() int { return s.n }

// Mean returns the running mean (0 for an empty accumulator).
func (s *Stats) Mean() float64 { return s.mean }

// Variance returns the running population variance (0 if fewer than one
// sample has been added).
func (s *Stats) Variance() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Min returns the smallest sample seen (0 for an empty accumulator).
func (s *Stats) Min() float64 { return s.min }

// Max returns the largest sample seen (0 for an empty accumulator).
func (s *Stats) Max() float64 { return s.max }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("mathx: Quantile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	insertionSort(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	return Lerp(sorted[lo], sorted[hi], pos-float64(lo)), nil
}

// insertionSort is adequate for the short slices Quantile sees in this
// code base and avoids pulling in sort for a single call site. It falls
// back to a shell-sort gap sequence for longer inputs.
func insertionSort(xs []float64) {
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		if gap >= len(xs) {
			continue
		}
		for i := gap; i < len(xs); i++ {
			v := xs[i]
			j := i
			for ; j >= gap && xs[j-gap] > v; j -= gap {
				xs[j] = xs[j-gap]
			}
			xs[j] = v
		}
	}
}

// AlmostEqual reports whether a and b differ by at most eps.
func AlmostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
