// Package stats is the repository's statistics substrate: streaming
// moments, quantiles, histograms and inequality measures. It underpins
// the characterization numbers reported by cmd/analyze and the
// evaluation harnesses.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming first/second moments and extrema without
// retaining observations. The zero value is ready to use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the summary (Welford's algorithm).
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Mean returns the running mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Max returns the maximum observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// String renders a compact human-readable summary line.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs. It
// returns 0 for empty input and panics if q is outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Gini returns the Gini coefficient of the non-negative values xs: 0 for
// perfect equality, approaching 1 for extreme concentration. It returns 0
// for empty input or a zero total.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		total += x
		cum += x * float64(i+1)
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
}

// Entropy returns the Shannon entropy (bits) of a non-negative weight
// vector; the vector is normalized internally. A zero vector has entropy 0.
func Entropy(ws []float64) float64 {
	var total float64
	for _, w := range ws {
		total += w
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for _, w := range ws {
		if w <= 0 {
			continue
		}
		p := w / total
		h -= p * math.Log2(p)
	}
	return h
}
