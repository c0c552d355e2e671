package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the exact nearest-rank percentile of sorted: the
// smallest value with at least p of the population at or below it, so
// the p99 of 1 000 samples has exactly 10 samples beyond it.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// quartiles returns the first and third quartile of xs by the method
// of Python's statistics.quantiles(xs, n=4) (exclusive), which is what
// the acceptance driver uses, so spreads computed here agree with it.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based scale, clamped to the data.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median
// — the run-to-run noise figure every bound in BENCHMARK.json is
// judged against. 0 when the median is 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionWithin returns how much of [lo, hi) the intervals cover, with
// overlapping intervals counted once — a parent span's time accounted
// for by its children. ivs is sorted in place.
func unionWithin(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var covered int64
	cursor := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < cursor {
			s = cursor
		}
		if e > hi {
			e = hi
		}
		if e > s {
			covered += e - s
			cursor = e
		}
	}
	return covered
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(start, end int64, children []interval) int64 {
	return (end - start) - unionWithin(start, end, children)
}
