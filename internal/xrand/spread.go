package xrand

import (
	"math/bits"
	"sort"
)

// exactThreshold is the largest total a multinomial places one unit at a
// time; above it, expected counts plus stochastic rounding. A power of
// two, so a Spread key holds a uniform's position in posBits.
const (
	posBits        = 11
	exactThreshold = 1 << posBits
)

// Spread is a multinomial sampler every call of which restarts from the
// same stream: Into(out, w, total) is what NewCategorical(&copy, w)
// .MultinomialInto(out, total) returns on a fresh copy of that stream,
// bit for bit, for every weights and total.
//
// A restarted stream reads the same uniforms every call, so for totals up
// to exactThreshold they are drawn once, here, and kept sorted at every
// power-of-two prefix length. A call then walks the shortest sorted prefix
// that covers total against its CDF — one merge sweep of prefix plus
// categories — instead of total draws, and counts each uniform whose
// position is below total in the first category whose CDF is at or above
// it, which is the category Draw would have returned. Larger totals run
// MultinomialInto on a fresh copy of the stream. Not safe for concurrent
// use.
type Spread struct {
	start Source // the stream every call restarts from
	src   Source // its copy for a call that draws
	cat   Categorical

	// The sorted prefixes, level after level: level k (length 2^k) starts
	// at 2^k-1 and holds the stream's first 2^k uniforms in ascending
	// order, each as a key: the draw's top 53 bits — Float64's numerator —
	// above its posBits-bit position in the stream, so keys sort as the
	// uniforms do. 32 KB.
	keys []uint64
}

// NewSpread returns a sampler whose every call restarts from src's
// current position. src itself is not advanced.
func NewSpread(src Source) *Spread {
	s := &Spread{start: src, keys: make([]uint64, 2*exactThreshold-1)}
	// The last level is drawn in stream order, each shorter level copied
	// from its prefix and sorted, and the last sorted after them.
	last := s.keys[exactThreshold-1:]
	for i := range last {
		last[i] = src.Uint64()>>(64-53)<<posBits | uint64(i)
	}
	for n := 1; n <= exactThreshold; n *= 2 {
		level := s.keys[n-1 : 2*n-1]
		copy(level, last[:n])
		// sort.Slice, not slices.Sort: a daemon's boot already runs its code
		// (the ring, the build), and a uint64 instantiation of slices.Sort
		// measured ≈0.2 MB more of the binary resident per process.
		sort.Slice(level, func(a, b int) bool { return level[a] < level[b] })
	}
	return s
}

// Into distributes total units across len(weights) categories as
// MultinomialInto does on a fresh copy of the sampler's stream, writing
// into out (one entry per weight; its contents are overwritten). It panics
// as NewCategorical and MultinomialInto do.
func (s *Spread) Into(out []int64, weights []float64, total int64) []int64 {
	s.src = s.start
	s.cat.Reset(&s.src, weights)
	if total > exactThreshold {
		return s.cat.MultinomialInto(out, total)
	}
	cdf := s.cat.cdf
	if len(out) != len(cdf) {
		panic("xrand: MultinomialInto length mismatch")
	}
	clear(out)
	if total <= 0 {
		return out
	}
	n := 1 << bits.Len64(uint64(total-1)) // the shortest level that covers total
	// j is the category the uniforms have reached, cnt its count so far:
	// it is stored when the sweep leaves it, and the categories skipped
	// keep the zero clear gave them. A key's uniform is m/2^53 for its
	// integer numerator m, so it exceeds cdf[j] exactly when m exceeds
	// lim = ⌊cdf[j]·2^53⌋ (the scaling is exact): the sweep compares
	// integers and converts one CDF entry per category, not one uniform
	// per key.
	last, j, cnt := len(cdf)-1, 0, int64(0)
	lim := uint64(cdf[0] * 0x1p53)
	for _, k := range s.keys[n-1 : 2*n-1] {
		if m := k >> posBits; m > lim && j < last {
			out[j], cnt = cnt, 0
			for j++; j < last; j++ {
				if lim = uint64(cdf[j] * 0x1p53); m <= lim {
					break
				}
			}
		}
		// 1 when the uniform's position is below total (both at most
		// exactThreshold, so the difference's sign bit says which).
		cnt += int64((uint32(k)&(exactThreshold-1) - uint32(total)) >> 31)
	}
	out[j] = cnt
	return out
}
