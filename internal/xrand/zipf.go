package xrand

import "math"

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, i.e. a bounded Zipf (zeta) distribution. It precomputes
// the CDF once, so sampling is O(log n) by binary search; construction is
// O(n). This matches how the repository uses Zipf: a fixed vocabulary or
// catalog is built once and sampled many times.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf returns a bounded Zipf sampler over n ranks with exponent s.
// It panics if n <= 0 or s < 0.
func NewZipf(src *Source, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipf with negative exponent")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank draws one rank in [0, N()).
func (z *Zipf) Rank() int {
	u := z.src.Float64()
	return searchCDF(z.cdf, u)
}

// CDF returns the cumulative probability of ranks 0..rank. It returns 0
// for negative ranks and 1 beyond the last rank.
func (z *Zipf) CDF(rank int) float64 {
	if rank < 0 {
		return 0
	}
	if rank >= len(z.cdf) {
		return 1
	}
	return z.cdf[rank]
}

// Prob returns the probability mass of the given rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank < 0 || rank >= len(z.cdf) {
		return 0
	}
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Categorical samples indices in [0, len(weights)) with probability
// proportional to the (non-negative) weights, via a precomputed CDF.
type Categorical struct {
	cdf []float64
	src *Source

	// guide[k] is searchCDF(cdf, k/guideBuckets): a draw whose u falls in
	// bucket k is found between guide[k] and guide[k+1], usually a step or
	// two apart. Built by the first Draw after a Reset, so a sampler that
	// is re-aimed and never drawn from does not pay for it.
	guide  [guideBuckets + 1]uint16
	guided bool
}

// guideBuckets divides [0, 1) for the guide table. A power of two, so
// u*guideBuckets is exact and a u on a bucket edge lands in the bucket it
// opens.
const guideBuckets = 64

// guideScan is the widest range find walks entry by entry: a country
// table's buckets (a step or two) never reach the search.
const guideScan = 8

// NewCategorical builds a categorical sampler from weights. It panics if
// weights is empty, contains a negative entry, or sums to zero.
func NewCategorical(src *Source, weights []float64) *Categorical {
	c := &Categorical{}
	c.Reset(src, weights)
	return c
}

// Reset re-aims the sampler at a new stream and new weights, reusing its
// CDF table — the per-video form of NewCategorical for a caller that
// builds one sampler per item and keeps none. It panics as
// NewCategorical does.
func (c *Categorical) Reset(src *Source, weights []float64) {
	if len(weights) == 0 {
		panic("xrand: NewCategorical with empty weights")
	}
	cdf := c.cdf
	if cap(cdf) < len(weights) {
		cdf = make([]float64, len(weights))
	}
	cdf = cdf[:len(weights)]
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: NewCategorical with negative or NaN weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("xrand: NewCategorical with zero total weight")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	c.cdf, c.src, c.guided = cdf, src, false
}

// Draw samples one index.
func (c *Categorical) Draw() int { return c.find(c.src.Float64()) }

// find returns exactly searchCDF(c.cdf, u), from the guide table instead
// of a search of the whole CDF.
func (c *Categorical) find(u float64) int {
	if len(c.cdf) > math.MaxUint16 {
		return searchCDF(c.cdf, u) // a guide entry is 16 bits
	}
	if !c.guided {
		c.buildGuide()
	}
	// searchCDF is monotone in u, so the answer lies between the answers
	// for the bucket's two edges; the CDF is non-decreasing, so the first
	// entry at or above u in that range is it.
	k := int(u * guideBuckets)
	i, hi := int(c.guide[k]), int(c.guide[k+1])
	if hi-i > guideScan {
		// A wide bucket: a vocabulary sampler's thousands of entries over
		// 64 buckets. The same search, over the bucket alone.
		return i + searchCDF(c.cdf[i:hi+1], u)
	}
	for i < hi && c.cdf[i] < u {
		i++
	}
	return i
}

// buildGuide fills the guide table in one sweep of the CDF.
func (c *Categorical) buildGuide() {
	last := len(c.cdf) - 1
	i := 0
	for k := range c.guide {
		edge := float64(k) / guideBuckets
		for i < last && c.cdf[i] < edge {
			i++
		}
		c.guide[k] = uint16(i)
	}
	c.guided = true
}

// MultinomialInto distributes total units across the categories, writing
// the counts into out (one entry per category; its previous contents are
// overwritten): by repeated categorical draws when total is small, or by
// a single pass of expected counts plus stochastic rounding when total is
// large. The counts always sum exactly to total.
func (c *Categorical) MultinomialInto(out []int64, total int64) []int64 {
	if len(out) != len(c.cdf) {
		panic("xrand: MultinomialInto length mismatch")
	}
	clear(out)
	if total <= 0 {
		return out
	}
	if total <= exactThreshold {
		for i := int64(0); i < total; i++ {
			out[c.Draw()]++
		}
		return out
	}
	// Large totals: expected value + stochastic rounding of remainders,
	// then fix up any residual on categorical draws.
	var assigned int64
	prev := 0.0
	for i, cv := range c.cdf {
		p := cv - prev
		prev = cv
		exp := p * float64(total)
		base := math.Floor(exp)
		n := int64(base)
		if c.src.Float64() < exp-base {
			n++
		}
		out[i] = n
		assigned += n
	}
	for assigned < total {
		out[c.Draw()]++
		assigned++
	}
	for assigned > total {
		i := c.Draw()
		if out[i] > 0 {
			out[i]--
			assigned--
		}
	}
	return out
}
