package xrand

import (
	"slices"
	"testing"
)

// spreadRef is what Spread.Into must return: a fresh copy of the stream
// behind a categorical sampler over w.
func spreadRef(start Source, w []float64, total int64) []int64 {
	return NewCategorical(&start, w).MultinomialInto(make([]int64, len(w)), total)
}

// TestSpreadGolden pins the sweep to hashes taken from MultinomialInto on
// a fresh stream copy at the commit before Spread existed: two totals on
// the sweep's side of the threshold, two on the expected-count side.
func TestSpreadGolden(t *testing.T) {
	src := NewSource(97)
	w := testWeights(src, 61, 0x40201)
	s := NewSpread(*NewSource(20110301).Fork("spread"))
	out := make([]int64, len(w))
	for _, g := range []struct {
		total int64
		want  uint64
	}{
		{127, 0x5f97e285001fe0a4}, {2048, 0x67ed40ef217aab7}, {2049, 0x6d7a2d251d46ad8e}, {123_456, 0xeee65e5fa6f14ba9},
	} {
		// Twice: a call must not depend on the one before it.
		for i := 0; i < 2; i++ {
			if got := hashInts(s.Into(out, w, g.total)); got != g.want {
				t.Errorf("Into(%d): hash %#x, want %#x", g.total, got, g.want)
			}
		}
	}
}

// TestSpreadMatchesMultinomial walks every total through the threshold on
// a few CDF shapes, including zero runs at both ends and inside.
func TestSpreadMatchesMultinomial(t *testing.T) {
	src := NewSource(3)
	start := *NewSource(11)
	s := NewSpread(start)
	for _, tc := range []struct {
		n        int
		zeroMask uint64
	}{{1, 0}, {2, 1}, {61, 0}, {61, 0xf00000000000000f}, {61, 0x0ff0f0}, {300, 0xaaaa}} {
		w := testWeights(src, tc.n, tc.zeroMask)
		out := make([]int64, tc.n)
		for total := int64(0); total <= exactThreshold+2; total++ {
			if got, want := s.Into(out, w, total), spreadRef(start, w, total); !slices.Equal(got, want) {
				t.Fatalf("%d categories (mask %#x), total %d: got %v, want %v", tc.n, tc.zeroMask, total, got, want)
			}
		}
	}
}

func FuzzSpread(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint64(0), uint16(0))
	f.Add(uint64(2), uint16(1), uint64(0), uint16(1))
	f.Add(uint64(3), uint16(60), uint64(0x8000000000000001), uint16(2047))
	f.Add(uint64(4), uint16(60), uint64(0x00ff00), uint16(2048))
	f.Add(uint64(5), uint16(1), uint64(0), uint16(2049))
	f.Add(uint64(6), uint16(299), uint64(0xfff0000000000fff), uint16(127))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, zeroMask uint64, total uint16) {
		src := NewSource(seed)
		w := testWeights(src, int(n%300)+1, zeroMask)
		start := *src.Fork("spread")
		tot := int64(total % 4097)
		got := NewSpread(start).Into(make([]int64, len(w)), w, tot)
		if want := spreadRef(start, w, tot); !slices.Equal(got, want) {
			t.Fatalf("%d categories, total %d: got %v, want %v", len(w), tot, got, want)
		}
	})
}

// TestSpreadAllocatesNothing: one video's spread, the generator's per-video
// call, allocates nothing once the sampler has a CDF of its size.
func TestSpreadAllocatesNothing(t *testing.T) {
	src := NewSource(5)
	w := testWeights(src, 61, 0)
	s := NewSpread(*src.Fork("spread"))
	out := make([]int64, len(w))
	s.Into(out, w, 127)
	if allocs := testing.AllocsPerRun(100, func() { s.Into(out, w, 127) }); allocs != 0 {
		t.Errorf("Spread.Into: %v allocs per call, want 0", allocs)
	}
}
