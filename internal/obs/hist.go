package obs

import (
	"math"
	"sync/atomic"
	"time"

	"viewstags/internal/stats"
)

// The latency histogram: numBuckets log-spaced buckets over
// [minLatency, maxLatency) plus a +Inf overflow bucket. Every
// histogram in the process shares one edge table, computed once from
// internal/stats' log-bucket math (stats.NewLogHistogram), so the
// layout that buckets view counts offline is the same one that buckets
// latencies online.
//
// 12 buckets per decade over 1µs..100s keeps neighbor edges a factor
// of 10^(1/12) ≈ 1.21 apart: quantiles interpolated within a bucket
// are exact to ~±10% anywhere in the range, and a full exposition is
// still under a hundred lines per family.
const (
	numBuckets = 96
	minLatency = 1e-6 // seconds
	maxLatency = 100.0
)

// bucketEdges holds the upper edge of each bucket in seconds;
// bucketEdgeNs the same in integer nanoseconds, which is what Observe
// binary-searches (a time.Duration compare, no float conversion on the
// hot path).
var (
	bucketEdges  [numBuckets]float64
	bucketEdgeNs [numBuckets]int64
)

func init() {
	h, err := stats.NewLogHistogram(minLatency, maxLatency, numBuckets)
	if err != nil {
		panic("obs: bucket edge init: " + err.Error())
	}
	for i := 0; i < numBuckets; i++ {
		_, hi, _ := h.Bin(i)
		bucketEdges[i] = hi
		bucketEdgeNs[i] = int64(math.Round(hi * 1e9))
	}
}

// Histogram is a fixed log-bucket latency histogram with atomic
// buckets. The zero value is ready to use — embed it by value and
// never copy it after first Observe. Observe is allocation-free and
// safe for any concurrency; Snapshot may run concurrently with
// observers (each bucket is read atomically; the cross-bucket view is
// only eventually consistent, which is all a scrape needs).
type Histogram struct {
	counts [numBuckets + 1]atomic.Uint64 // [numBuckets] is the +Inf bucket
	count  atomic.Uint64
	sumNs  atomic.Int64
}

// Observe records one latency. Negative durations clamp to zero (a
// clock step mid-request must not corrupt the sum).
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Count and sum first, bucket last: a scrape that copies the
	// buckets and then reads the count sees every copied increment's
	// count already applied, so bucket totals never exceed Count.
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.counts[bucketIndex(ns)].Add(1)
}

// bucketIndex returns the smallest bucket whose upper edge is >= ns,
// or the +Inf bucket.
func bucketIndex(ns int64) int {
	if ns > bucketEdgeNs[numBuckets-1] {
		return numBuckets
	}
	lo, hi := 0, numBuckets-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns <= bucketEdgeNs[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// HistSnapshot is a point-in-time copy of a histogram, safe to read at
// leisure.
type HistSnapshot struct {
	Counts [numBuckets + 1]uint64
	Count  uint64
	SumNs  int64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	return s
}

// Mean returns the exact mean latency in seconds (from the running
// sum, not the buckets), or 0 for an empty histogram.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / 1e9 / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) in seconds by
// cumulative walk with linear interpolation inside the located bucket.
// Returns 0 for an empty histogram. The +Inf bucket reports the range
// ceiling — a scrape cannot say more about a >100s outlier.
func (s *HistSnapshot) Quantile(q float64) float64 {
	// The per-bucket copies may lag Count (observers race the copy
	// loop); rank against the buckets' own total so the walk always
	// terminates inside the table.
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == numBuckets {
			return maxLatency
		}
		lo := 0.0
		if i > 0 {
			lo = bucketEdges[i-1]
		}
		hi := bucketEdges[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return maxLatency
}
