package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketEdgesMonotone(t *testing.T) {
	prev := 0.0
	for i, e := range bucketEdges {
		if e <= prev {
			t.Fatalf("edge %d (%g) not above previous (%g)", i, e, prev)
		}
		prev = e
	}
	// bucketEdges holds upper edges: the first is one log step above
	// the range floor, the last is the range ceiling exactly.
	if got := bucketEdges[0]; got <= minLatency || got > 2*minLatency {
		t.Fatalf("first upper edge %g, want in (%g, %g]", got, minLatency, 2*minLatency)
	}
	if got := bucketEdges[numBuckets-1]; math.Abs(got-maxLatency) > 1e-9 {
		t.Fatalf("last edge %g, want %g", got, maxLatency)
	}
}

func TestBucketIndexAgainstEdges(t *testing.T) {
	for i, edge := range bucketEdgeNs {
		if got := bucketIndex(edge); got != i {
			t.Fatalf("bucketIndex(edge[%d]=%d) = %d, want %d", i, edge, got, i)
		}
		if got := bucketIndex(edge + 1); got != i+1 {
			t.Fatalf("bucketIndex(edge[%d]+1) = %d, want %d", i, got, i+1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(math.MaxInt64); got != numBuckets {
		t.Fatalf("bucketIndex(max) = %d, want the +Inf bucket %d", got, numBuckets)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// A uniform sweep over [1ms, 101ms): true quantiles are known in
	// closed form, log buckets are ~21% wide, interpolation should land
	// well inside that.
	const n = 100000
	for i := 0; i < n; i++ {
		h.Observe(time.Millisecond + time.Duration(i)*100*time.Millisecond/n)
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count %d, want %d", s.Count, n)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0.051}, {0.95, 0.096}, {0.99, 0.100},
	} {
		got := s.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.12 {
			t.Errorf("q%.2f = %.4fs, want ~%.4fs (off %.1f%%)", tc.q, got, tc.want, rel*100)
		}
	}
	wantMean := 0.051
	if got := s.Mean(); math.Abs(got-wantMean)/wantMean > 0.01 {
		t.Errorf("mean %.4fs, want ~%.4fs", s.Mean(), wantMean)
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-time.Second) // clock step: clamps, never corrupts the sum
	h.Observe(time.Duration(math.MaxInt64))
	s = h.Snapshot()
	if s.SumNs < 0 || s.Counts[0] != 1 || s.Counts[numBuckets] != 1 {
		t.Fatalf("clamp/overflow misplaced: sum=%d lo=%d inf=%d", s.SumNs, s.Counts[0], s.Counts[numBuckets])
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}

// TestHistogramObserveVsScrapeRace hammers Observe from many
// goroutines while concurrently snapshotting and rendering — the
// -race gate for the scrape path. Beyond data races it asserts the
// invariant a concurrent snapshot must keep: the bucket total never
// exceeds the Count counter observed *after* the copy.
func TestHistogramObserveVsScrapeRace(t *testing.T) {
	var h Histogram
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := time.Duration(w+1) * 100 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var total uint64
		for _, c := range s.Counts {
			total += c
		}
		if after := h.count.Load(); total > after {
			t.Fatalf("scrape %d: bucket total %d above later count %d", i, total, after)
		}
		if q := s.Quantile(0.99); q < 0 || q > maxLatency {
			t.Fatalf("scrape %d: q99 %g out of range", i, q)
		}
		tw := NewTextWriter()
		tw.Histogram("race_test_seconds", "hammered", nil, s)
		if err := Validate(tw.Bytes()); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRequestIDs(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if len(id) != 16 || !ValidRequestID(id) {
			t.Fatalf("bad id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	for _, bad := range []string{"", "id with space", "a\nb", "x;y", "a,b", strings.Repeat("x", MaxRequestIDLen+1)} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true, want false", bad)
		}
	}
	for _, good := range []string{"abc123.def456:g-h_i", strings.Repeat("x", MaxRequestIDLen)} {
		if !ValidRequestID(good) {
			t.Errorf("ValidRequestID(%q) = false, want true", good)
		}
	}
}
