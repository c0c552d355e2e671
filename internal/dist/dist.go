// Package dist holds the discrete-distribution toolkit every layer of
// the reproduction shares: normalization, divergences (Jensen–Shannon,
// total variation), mixtures, top-k mass queries, and the
// local/regional/global spread taxonomy of the paper's §3 observation.
//
// All functions treat their inputs as non-negative weight vectors over
// the world's countries and normalize internally where a probability
// interpretation is needed, so callers can pass raw view counts.
package dist

import (
	"fmt"
	"math"
	"slices"
)

// Sum returns the total mass of a weight vector.
func Sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// Normalize returns a fresh probability vector proportional to xs. A
// zero-mass (or empty) input yields an all-zero vector of the same
// length, which keeps downstream ArgMax semantics ("no signal") intact.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	t := Sum(xs)
	if t <= 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / t
	}
	return out
}

// ArgMax returns the index of the largest strictly positive entry, ties
// broken toward the lower index. It returns -1 when the vector is empty
// or carries no positive mass — the "no signal" sentinel callers test
// with top < 0.
func ArgMax(xs []float64) int {
	best, bestV := -1, 0.0
	for i, x := range xs {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}

// JS returns the Jensen–Shannon divergence between the distributions
// proportional to x and y, in bits (so 0 <= JS <= 1). It returns an
// error on a length mismatch or when either vector has no mass.
func JS(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("dist: JS length mismatch %d != %d", len(x), len(y))
	}
	tx, ty := Sum(x), Sum(y)
	if tx <= 0 || ty <= 0 {
		return 0, fmt.Errorf("dist: JS of zero-mass vector")
	}
	var js float64
	for i := range x {
		p, q := x[i]/tx, y[i]/ty
		m := (p + q) / 2
		if p > 0 {
			js += 0.5 * p * math.Log2(p/m)
		}
		if q > 0 {
			js += 0.5 * q * math.Log2(q/m)
		}
	}
	// Clamp the tiny negative excursions floating point can produce.
	if js < 0 {
		js = 0
	}
	return js, nil
}

// TV returns the total-variation distance between the distributions
// proportional to x and y (0 <= TV <= 1). It returns an error on a
// length mismatch or when either vector has no mass.
func TV(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("dist: TV length mismatch %d != %d", len(x), len(y))
	}
	tx, ty := Sum(x), Sum(y)
	if tx <= 0 || ty <= 0 {
		return 0, fmt.Errorf("dist: TV of zero-mass vector")
	}
	var tv float64
	for i := range x {
		tv += math.Abs(x[i]/tx - y[i]/ty)
	}
	return tv / 2, nil
}

// Mix returns the normalized weighted mixture of the component weight
// vectors: each component is normalized before mixing, so components
// with different raw magnitudes contribute exactly their weight. It
// returns an error for an empty input, mismatched lengths, a zero-mass
// component, or a non-positive total weight.
func Mix(comps [][]float64, weights []float64) ([]float64, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("dist: empty mixture")
	}
	if len(comps) != len(weights) {
		return nil, fmt.Errorf("dist: %d components but %d weights", len(comps), len(weights))
	}
	n := len(comps[0])
	var wTotal float64
	for _, w := range weights {
		if w > 0 {
			wTotal += w
		}
	}
	if wTotal <= 0 {
		return nil, fmt.Errorf("dist: mixture weights sum to %v", wTotal)
	}
	out := make([]float64, n)
	for k, comp := range comps {
		if len(comp) != n {
			return nil, fmt.Errorf("dist: component %d has length %d, want %d", k, len(comp), n)
		}
		if weights[k] <= 0 {
			continue
		}
		ct := Sum(comp)
		if ct <= 0 {
			return nil, fmt.Errorf("dist: component %d has no mass", k)
		}
		scale := weights[k] / (wTotal * ct)
		for i, x := range comp {
			out[i] += scale * x
		}
	}
	return out, nil
}

// TopShare returns the indices of the k highest-mass strictly positive
// entries (descending, ties toward the lower index) and the fraction of
// total mass they carry. Fewer than k indices come back when fewer
// entries have signal; a zero-mass vector yields (0, nil).
func TopShare(xs []float64, k int) (float64, []int) {
	return TopShareInto(nil, xs, k)
}

// TopShareInto is TopShare with the indices written into dst's backing
// array, which it allocates only when dst has less room than the answer
// may need: k+1 indices when k < len(xs)/2, else len(xs).
func TopShareInto(dst []int, xs []float64, k int) (float64, []int) {
	total := Sum(xs)
	if total <= 0 || k <= 0 {
		return 0, nil
	}
	var idx []int
	if k < len(xs)/2 {
		idx = topSelect(dst, xs, k)
	} else {
		if idx = dst[:0]; cap(idx) < len(xs) {
			idx = make([]int, 0, len(xs))
		}
		for i, x := range xs {
			if x > 0 {
				idx = append(idx, i)
			}
		}
		// A strict total order (mass, then index), so the order is the
		// one answer whatever the sort's algorithm.
		slices.SortFunc(idx, func(a, b int) int {
			if xa, xb := xs[a], xs[b]; xa != xb {
				if xa > xb {
					return -1
				}
				return 1
			}
			return a - b
		})
		if k > len(idx) {
			k = len(idx)
		}
		idx = idx[:k]
	}
	var mass float64
	for _, i := range idx {
		mass += xs[i]
	}
	return mass / total, idx
}

// topSelect is the small-k path of TopShare: one pass with an insertion
// top-k into dst's backing array, O(n·k) with no comparator indirection
// — the prediction serving hot path asks for a handful of countries out
// of the whole world, so this beats a full sort there. Iterating indices
// ascending with strict comparisons preserves the tie rule (equal mass →
// lower index first).
func topSelect(dst []int, xs []float64, k int) []int {
	top := dst[:0]
	if cap(top) < k+1 {
		top = make([]int, 0, k+1)
	}
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		if len(top) == k && x <= xs[top[k-1]] {
			continue
		}
		j := len(top)
		top = append(top, i)
		for j > 0 && xs[top[j-1]] < x {
			top[j] = top[j-1]
			j--
		}
		top[j] = i
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// EffectiveCountries returns the perplexity 2^H of the distribution
// proportional to xs — "how many countries does this tag effectively
// live in". A zero-mass vector yields 0.
func EffectiveCountries(xs []float64) float64 {
	total := Sum(xs)
	if total <= 0 {
		return 0
	}
	var h float64
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		p := x / total
		h -= p * math.Log2(p)
	}
	return math.Exp2(h)
}
