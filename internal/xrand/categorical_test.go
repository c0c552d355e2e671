package xrand

import (
	"hash/fnv"
	"math"
	"testing"
)

// testWeights draws n weights from src, zeroing those whose bit (mod 64)
// is set in zeroMask — zero weights are flat runs of the CDF, the case a
// "first entry at or above u" scan can get wrong. At least one stays
// positive.
func testWeights(src *Source, n int, zeroMask uint64) []float64 {
	w := make([]float64, n)
	positive := false
	for i := range w {
		if zeroMask>>(i%64)&1 == 0 {
			u := src.Float64()
			for u == 0 {
				u = src.Float64()
			}
			w[i] = -math.Log(u) // an exponential deviate
			positive = true
		}
	}
	if !positive {
		w[src.Intn(n)] = 1
	}
	return w
}

// checkFind holds the guided lookup to the reference search on the u's
// where they could part: every bucket edge, every CDF entry and its two
// neighbours, and a run of the stream's own draws.
func checkFind(t *testing.T, c *Categorical, src *Source) {
	t.Helper()
	check := func(u float64) {
		t.Helper()
		if u < 0 || u >= 1 {
			return // Float64 never returns it
		}
		if got, want := c.find(u), searchCDF(c.cdf, u); got != want {
			t.Fatalf("%d categories: find(%v) = %d, searchCDF = %d", len(c.cdf), u, got, want)
		}
	}
	for k := 0; k < guideBuckets; k++ {
		edge := float64(k) / guideBuckets
		check(edge)
		check(math.Nextafter(edge, 0))
		check(math.Nextafter(edge, 1))
	}
	for _, x := range c.cdf {
		check(x)
		check(math.Nextafter(x, 0))
		check(math.Nextafter(x, 1))
	}
	for i := 0; i < 2000; i++ {
		check(src.Float64())
	}
}

// TestGuidedDrawMatchesSearchCDF: Draw through the guide table is the
// binary search it replaced, for every shape of CDF — and for one sampler
// re-aimed across all of them, so a stale guide would show.
func TestGuidedDrawMatchesSearchCDF(t *testing.T) {
	src := NewSource(71)
	var c Categorical
	for _, tc := range []struct {
		n        int
		zeroMask uint64
	}{
		{1, 0}, {2, 0}, {2, 1}, {2, 2}, {3, 0b101},
		{60, 0}, {60, 0x0f0f0f0f0f0f0f0f}, {60, ^uint64(1 << 17)}, {60, math.MaxUint64},
		{64, 0}, {65, 0xff}, {700, 0}, {700, 0xffffffff00000000}, {5000, 0xaaaaaaaaaaaaaaaa},
		{12304, 0}, {12304, 0x00ffff0000ffff00}, // a 20 000-video vocabulary's global sampler: buckets hundreds wide, halved
		{math.MaxUint16, 0}, {math.MaxUint16, 0xfffffffffffffff0}, {math.MaxUint16 + 1, 0}, {70000, 0xf0f0}, // the last two: no guide, the fallback
	} {
		c.Reset(src, testWeights(src, tc.n, tc.zeroMask))
		checkFind(t, &c, src)
	}

	// Draw is find on the stream's next uniform, and consumes exactly it.
	w := testWeights(src, 60, 0x33)
	drawn, ref := NewCategorical(NewSource(5), w), NewSource(5)
	for i := 0; i < 5000; i++ {
		if got, want := drawn.Draw(), searchCDF(drawn.cdf, ref.Float64()); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
}

func FuzzCategoricalDraw(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint64(0), 0.5)
	f.Add(uint64(2), uint16(1), uint64(0), 0.0)
	f.Add(uint64(3), uint16(64), uint64(0xff00ff), 1.0/64)
	f.Add(uint64(4), uint16(700), uint64(math.MaxUint64), 63.0/64)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, zeroMask uint64, u float64) {
		src := NewSource(seed)
		c := NewCategorical(src, testWeights(src, int(n%2048)+1, zeroMask))
		if u >= 0 && u < 1 {
			if got, want := c.find(u), searchCDF(c.cdf, u); got != want {
				t.Fatalf("find(%v) = %d, searchCDF = %d over %v", u, got, want, c.cdf)
			}
		}
		checkFind(t, c, src)
	})
}

func hashInts[T int | int64](xs []T) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		var b [8]byte
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMultinomialAndZipfGolden pins the draws the guide table must not
// have moved, as hashes taken at the commit before it: a multinomial on
// each side of the exact-draw threshold (per-unit draws; expected counts
// with stochastic rounding and a categorical fix-up) and Zipf ranks,
// which still search their CDF directly.
func TestMultinomialAndZipfGolden(t *testing.T) {
	src := NewSource(83)
	c := NewCategorical(src, testWeights(src, 60, 0x8421))
	for _, g := range []struct {
		total int64
		want  uint64
	}{
		{50, 0x150cfdadd49e1a23}, {2048, 0xb27a31ffb7715801}, {2049, 0xf286be6ce92a4fc6}, {123_456_789, 0x4eb0a1f142e8a35a},
	} {
		out := c.MultinomialInto(make([]int64, len(c.cdf)), g.total)
		var sum int64
		for _, x := range out {
			sum += x
		}
		if got := hashInts(out); sum != g.total || got != g.want {
			t.Errorf("Multinomial(%d): sum %d, hash %#x, want %#x", g.total, sum, got, g.want)
		}
	}
	z := NewZipf(NewSource(89), 1.1, 5000)
	ranks := make([]int, 10000)
	for i := range ranks {
		ranks[i] = z.Rank()
	}
	if got, want := hashInts(ranks), uint64(0x87bc899f73a3cb27); got != want {
		t.Errorf("Zipf ranks hash %#x, want %#x", got, want)
	}
}

func BenchmarkCategoricalDraw(b *testing.B) {
	src := NewSource(1)
	w := testWeights(src, 60, 0)
	b.Run("draw", func(b *testing.B) {
		c := NewCategorical(src, w)
		for i := 0; i < b.N; i++ {
			sinkInt += c.Draw()
		}
	})
	// A vocabulary sampler at the benchmark's catalog: buckets ≈190 wide.
	b.Run("draw-12304", func(b *testing.B) {
		c := NewCategorical(src, testWeights(src, 12304, 0))
		for i := 0; i < b.N; i++ {
			sinkInt += c.Draw()
		}
	})
	// A video's worth: re-aim, then the fewest draws a video makes.
	b.Run("reset+50", func(b *testing.B) {
		var c Categorical
		for i := 0; i < b.N; i++ {
			c.Reset(src, w)
			for j := 0; j < 50; j++ {
				sinkInt += c.Draw()
			}
		}
	})
	// A video's spread at the default catalog's mean exact-path total (319
	// views): re-aim, then one sweep of the 512-key level, beside reset+50's
	// fifty draws.
	b.Run("spread-319", func(b *testing.B) {
		s := NewSpread(*src.Fork("spread"))
		out := make([]int64, len(w))
		for i := 0; i < b.N; i++ {
			sinkInt += int(s.Into(out, w, 319)[0])
		}
	})
}

var sinkInt int
