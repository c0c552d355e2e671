// Package xrand provides the deterministic randomness substrate used by
// every stochastic component in this repository.
//
// The package exists so that experiments are bit-reproducible: all
// generators derive from an explicit, seedable Source (a SplitMix64
// stream), and independent sub-streams can be forked from a parent stream
// by label, so adding randomness consumers to one module never perturbs
// the draws observed by another.
package xrand

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic 64-bit pseudo-random stream based on
// SplitMix64 (Steele, Lea & Flood, OOPSLA'14). It is tiny, fast,
// equidistributed enough for simulation workloads, and trivially
// forkable. A Source is NOT safe for concurrent use; fork per goroutine.
type Source struct {
	state uint64
	seed  uint64 // initial seed, preserved so Fork is use-independent
}

// NewSource returns a Source seeded with seed. Distinct seeds give
// independent-looking streams; seed 0 is valid.
func NewSource(seed uint64) *Source {
	return &Source{state: seed, seed: seed}
}

// Fork derives an independent child stream from the parent's seed and a
// string label. The parent's own state is not consumed, so the set of
// children is stable regardless of how much the parent has been used.
func (s *Source) Fork(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	// Mix the label hash with the parent's initial entropy (one
	// SplitMix64 round over the seed, not the advancing state).
	z := mix64(s.seed + 0x9e3779b97f4a7c15)
	return NewSource(z ^ h.Sum64())
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// gammaDraws consumes the uniforms of one Gamma(shape, 1) deviate
// (Marsaglia & Tsang, 2000), in their order: for a sub-unit shape the
// boost uniform U (redrawn while 0), then the accept/reject loop at shape
// (or shape+1 when boosted). It returns the loop's deviate and U (0
// without a boost); FinishDirichlet makes the deviate Gamma(shape)'s.
// DirichletDraws and SkipDirichlet both draw through it, so the two
// consume equal streams by construction.
func (s *Source) gammaDraws(shape float64) (g, boost float64) {
	if shape <= 0 {
		panic("xrand: non-positive Gamma shape")
	}
	if shape < 1 {
		boost = s.Float64()
		for boost == 0 {
			boost = s.Float64()
		}
		shape++
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := s.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u == 0 {
			continue
		}
		if u < 1-0.0331*x*x*x*x {
			return d * v, boost
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v, boost
		}
	}
}

// DirichletDraws is the stream half of a Dirichlet(alpha) draw (all alpha
// > 0): for each component in order it consumes the boost uniform and the
// accept/reject loop, and leaves the loop's deviate in draws and the
// boost uniform in boosts. FinishDirichlet, the arithmetic half, reads no
// stream, so the two can run on different goroutines. draws and boosts
// must be at least as long as alpha.
func (s *Source) DirichletDraws(alpha, draws, boosts []float64) {
	for i, a := range alpha {
		draws[i], boosts[i] = s.gammaDraws(a)
	}
}

// SkipDirichlet advances s past a Dirichlet(alpha) draw without keeping
// it: DirichletDraws' uniforms in the same order, nothing stored and no
// FinishDirichlet to run. For a caller whose draw nothing reads, so the
// stream's later draws stay where they were.
func (s *Source) SkipDirichlet(alpha []float64) {
	for _, a := range alpha {
		s.gammaDraws(a)
	}
}

// FinishDirichlet is the arithmetic half of a Dirichlet(alpha) draw: it
// turns what DirichletDraws left in draws and boosts into the draw, in
// draws, which then sums to 1. Each sub-unit shape's deviate is boosted,
// Gamma(a) = Gamma(a+1) * U^{1/a}, and the Gamma deviates are normalised
// by their sum. The three slices must have the same length.
func FinishDirichlet(alpha, draws, boosts []float64) {
	if len(alpha) != len(draws) || len(boosts) != len(draws) {
		panic("xrand: Dirichlet length mismatch")
	}
	var sum float64
	for i, a := range alpha {
		if a < 1 {
			draws[i] = boosted(draws[i], boosts[i], a)
		}
		sum += draws[i]
	}
	if sum == 0 {
		// Degenerate draw (possible for tiny alphas); fall back to uniform.
		u := 1 / float64(len(draws))
		for i := range draws {
			draws[i] = u
		}
		return
	}
	for i := range draws {
		draws[i] /= sum
	}
}

// boosted returns g * u^(1/a), the boost that makes a Gamma(a+1) deviate g
// a Gamma(a) one, computed as exp(log u / a): cheaper than math.Pow, which
// handles the signs and special cases a uniform in (0, 1) never has. The
// conversion rounds the product before a caller's sum reads it: no fused
// multiply-add, on any architecture.
func boosted(g, u, a float64) float64 {
	return float64(g * math.Exp(math.Log(u)/a))
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}
