package xrand

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// Multinomial is MultinomialInto with a fresh slice.
func (c *Categorical) Multinomial(total int64) []int64 {
	return c.MultinomialInto(make([]int64, len(c.cdf)), total)
}

// Gamma returns a Gamma(shape, 1) deviate using the Marsaglia–Tsang
// method (2000). shape must be > 0. With Dirichlet it is the one-shot
// draw the generator made before the draw was split into DirichletDraws
// and FinishDirichlet: the reference those two must match bit for bit.
func (s *Source) Gamma(shape float64) float64 {
	g, boost := s.gammaDraws(shape)
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		return boosted(g, boost, shape)
	}
	return g
}

// Dirichlet fills out with a draw from a Dirichlet distribution with the
// given concentration parameters alpha (all > 0). out and alpha must have
// the same length. The result sums to 1.
func (s *Source) Dirichlet(alpha []float64, out []float64) {
	if len(alpha) != len(out) {
		panic("xrand: Dirichlet length mismatch")
	}
	var sum float64
	for i, a := range alpha {
		g := s.Gamma(a)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (possible for tiny alphas); fall back to uniform.
		u := 1 / float64(len(out))
		for i := range out {
			out[i] = u
		}
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with same seed diverged: %d != %d", i, got, want)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws in 100", same)
	}
}

func TestForkIndependentOfParentUse(t *testing.T) {
	a := NewSource(7)
	childBefore := a.Fork("worker").Uint64()
	for i := 0; i < 50; i++ {
		a.Uint64() // consume parent
	}
	childAfter := a.Fork("worker").Uint64()
	if childBefore != childAfter {
		t.Fatalf("fork depends on parent consumption: %d != %d", childBefore, childAfter)
	}
}

func TestForkLabelsDiffer(t *testing.T) {
	a := NewSource(7)
	if a.Fork("x").Uint64() == a.Fork("y").Uint64() {
		t.Fatal("forks with different labels produced the same first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewSource(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewSource(5)
	for n := 1; n <= 17; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 200*n; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) only produced %d distinct values", n, len(seen))
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSource(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestNormFloat64Moments holds the ziggurat to the standard normal where a
// wrong table would show: the mean, the variance, the fourth moment (3),
// the mass within one and two sigmas, and the two-sided tail beyond the
// base strip's edge rn, which only the tail branch draws. Each try's
// branch is read off a copy of the Source before the draw, and both
// non-rectangle branches — the base strip's tail and a wedge — must have
// run.
func TestNormFloat64Moments(t *testing.T) {
	s := NewSource(13)
	const n = 1000000
	var sum, sumSq, sum4 float64
	var within1, within2, tail, baseTries, wedgeTries int
	for i := 0; i < n; i++ {
		peek := *s
		u := peek.Uint64()
		j, k := int32(u), u>>32&0x7F
		if absInt32(j) >= kn[k] {
			if k == 0 {
				baseTries++
			} else {
				wedgeTries++
			}
		}
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
		sum4 += v * v * v * v
		switch a := math.Abs(v); {
		case a < 1:
			within1++
			within2++
		case a < 2:
			within2++
		case a > rn:
			tail++
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.01 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
	if m4 := sum4 / n; math.Abs(m4-3) > 0.05 {
		t.Errorf("normal fourth moment = %v, want ~3", m4)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"P(|x|<1)", float64(within1) / n, 0.682689},
		{"P(|x|<2)", float64(within2) / n, 0.954500},
		{"P(|x|>rn)", float64(tail) / n, 5.761e-4},
	} {
		// Five binomial standard deviations.
		if tol := 5 * math.Sqrt(c.want*(1-c.want)/n); math.Abs(c.got-c.want) > tol {
			t.Errorf("%s = %v, want %v ± %v", c.name, c.got, c.want, tol)
		}
	}
	if baseTries == 0 || wedgeTries == 0 {
		t.Errorf("first tries took the base strip's tail %d times and a wedge %d times; both branches must run", baseTries, wedgeTries)
	}
}

// TestGammaMean holds Gamma(shape) to its mean and its variance, both
// equal to the shape, within five standard errors — at sub-unit shapes,
// which the boost makes, as well as at unboosted ones. The boost's
// arithmetic is checked here, so TestSkipDirichletMatchesDraw checks only
// the stream split.
func TestGammaMean(t *testing.T) {
	for _, shape := range []float64{0.05, 0.3, 0.5, 1, 2.5, 9} {
		s := NewSource(19)
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := s.Gamma(shape)
			if v < 0 {
				t.Fatalf("Gamma(%v) negative: %v", shape, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		// The sample mean's variance is shape/n; the sample variance's is
		// (mu4 - shape^2)/n with the fourth central moment 3k^2+6k.
		if tol := 5 * math.Sqrt(shape/n); math.Abs(mean-shape) > tol {
			t.Errorf("Gamma(%v) mean = %v, want %v ± %v", shape, mean, shape, tol)
		}
		if tol := 5 * math.Sqrt((2*shape*shape+6*shape)/n); math.Abs(variance-shape) > tol {
			t.Errorf("Gamma(%v) variance = %v, want %v ± %v", shape, variance, shape, tol)
		}
	}
	// The halves show the deviates only normalised: a component's mean is
	// its Gamma mean's share, alpha[i] / sum(alpha), to the same tolerance.
	alpha := []float64{0.5, 1, 2.5, 9}
	const total, n = 13.0, 100000
	s := NewSource(19)
	draws, boosts := make([]float64, len(alpha)), make([]float64, len(alpha))
	means := make([]float64, len(alpha))
	for i := 0; i < n; i++ {
		s.DirichletDraws(alpha, draws, boosts)
		FinishDirichlet(alpha, draws, boosts)
		for c, v := range draws {
			means[c] += v / n
		}
	}
	for c, a := range alpha {
		if math.Abs(means[c]-a/total) > (0.05*a+0.02)/total {
			t.Errorf("Dirichlet(%v) component %d mean = %v, want ~%v", alpha, c, means[c], a/total)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	s := NewSource(23)
	alpha := []float64{0.2, 1, 3, 0.5, 2}
	out, boosts := make([]float64, len(alpha)), make([]float64, len(alpha))
	for i := 0; i < 1000; i++ {
		s.DirichletDraws(alpha, out, boosts)
		FinishDirichlet(alpha, out, boosts)
		var sum float64
		for _, v := range out {
			if v < 0 {
				t.Fatalf("Dirichlet produced negative component: %v", out)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sum = %v, want 1", sum)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(NewSource(1), 1.1, 500)
	var sum float64
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf probabilities sum to %v", sum)
	}
}

func TestZipfMonotoneHead(t *testing.T) {
	z := NewZipf(NewSource(1), 1.0, 100)
	for i := 1; i < 100; i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-12 {
			t.Fatalf("Zipf mass not non-increasing at rank %d", i)
		}
	}
}

func TestZipfEmpiricalSkew(t *testing.T) {
	src := NewSource(31)
	z := NewZipf(src, 1.0, 1000)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank()]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("rank 0 (%d) not more frequent than rank 10 (%d)", counts[0], counts[10])
	}
	// Rank 0 of Zipf(1.0, 1000) should hold ~13% of the mass.
	frac := float64(counts[0]) / n
	if frac < 0.10 || frac > 0.17 {
		t.Fatalf("rank-0 frequency %v outside expected Zipf head", frac)
	}
}

func TestZipfRankInRangeProperty(t *testing.T) {
	src := NewSource(37)
	z := NewZipf(src, 0.8, 77)
	f := func(_ uint32) bool {
		r := z.Rank()
		return r >= 0 && r < 77
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalRespectsZeroWeights(t *testing.T) {
	src := NewSource(41)
	c := NewCategorical(src, []float64{0, 1, 0, 2, 0})
	for i := 0; i < 10000; i++ {
		d := c.Draw()
		if d != 1 && d != 3 {
			t.Fatalf("drew zero-weight category %d", d)
		}
	}
}

func TestCategoricalProportions(t *testing.T) {
	src := NewSource(43)
	c := NewCategorical(src, []float64{1, 3})
	n1 := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.Draw() == 1 {
			n1++
		}
	}
	if frac := float64(n1) / n; math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("category-1 frequency %v, want ~0.75", frac)
	}
}

func TestMultinomialSumsExactly(t *testing.T) {
	src := NewSource(47)
	c := NewCategorical(src, []float64{5, 1, 0.1, 3, 0})
	for _, total := range []int64{0, 1, 7, 100, 2048, 2049, 1000000} {
		out := c.Multinomial(total)
		var sum int64
		for i, v := range out {
			if v < 0 {
				t.Fatalf("total=%d: negative count at %d: %v", total, i, out)
			}
			sum += v
		}
		if sum != total {
			t.Fatalf("total=%d: counts sum to %d", total, sum)
		}
		if out[4] != 0 {
			t.Fatalf("total=%d: zero-weight category received %d units", total, out[4])
		}
	}
}

func TestMultinomialProportionsLarge(t *testing.T) {
	src := NewSource(53)
	c := NewCategorical(src, []float64{1, 1, 2})
	out := c.Multinomial(4_000_000)
	frac2 := float64(out[2]) / 4_000_000
	if math.Abs(frac2-0.5) > 0.01 {
		t.Fatalf("heavy category got fraction %v, want ~0.5", frac2)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"zero-sum": {0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCategorical(%v) did not panic", weights)
				}
			}()
			NewCategorical(NewSource(1), weights)
		})
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := NewSource(73)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", f)
	}
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) fired")
	}
}

// skipAlpha maps bytes to a concentration vector over the shapes that
// take different paths through Gamma: the generator's 1e-4 clamp, other
// sub-unit shapes (boosted), exactly 1 (the smallest unboosted), shapes
// in (1, 17), and large ones up to 1e4.
func skipAlpha(b []byte) []float64 {
	out := make([]float64, len(b))
	for i, x := range b {
		f := float64(x) / 256
		switch x % 5 {
		case 0:
			out[i] = 1e-4
		case 1:
			out[i] = 1e-4 + f*(1-1e-4)
		case 2:
			out[i] = 1
		case 3:
			out[i] = 1 + 16*f
		default:
			out[i] = 120 + 1e4*f
		}
	}
	return out
}

// checkSkipDirichlet makes rounds Dirichlet(alpha) draws on three equal
// Sources: the reference one-shot Dirichlet, the two halves, and
// SkipDirichlet. After every round the halves must have written the
// reference's exact bits, and the three Sources must stay in step, in
// state and so in every later draw. It returns how many rounds took the
// zero-sum uniform fallback.
func checkSkipDirichlet(t *testing.T, seed uint64, alpha []float64, rounds int) (fallbacks int) {
	t.Helper()
	ref, halves, skip := NewSource(seed), NewSource(seed), NewSource(seed)
	want := make([]float64, len(alpha))
	got, boosts := make([]float64, len(alpha)), make([]float64, len(alpha))
	for r := 0; r < rounds; r++ {
		ref.Dirichlet(alpha, want)
		halves.DirichletDraws(alpha, got, boosts)
		if *halves != *ref {
			t.Fatalf("seed %d, alpha %v, round %d: the stream half and the draw consumed different numbers of uniforms", seed, alpha, r)
		}
		FinishDirichlet(alpha, got, boosts)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d, alpha %v, round %d: component %d is %v through the halves, %v through the draw", seed, alpha, r, i, got[i], want[i])
			}
		}
		if len(alpha) > 1 && !slices.ContainsFunc(want, func(x float64) bool { return x != 1/float64(len(alpha)) }) {
			fallbacks++
		}
		skip.SkipDirichlet(alpha)
		if *skip != *halves {
			t.Fatalf("seed %d, alpha %v, round %d: the skip and the stream half consumed different numbers of uniforms", seed, alpha, r)
		}
	}
	if u := ref.Uint64(); halves.Uint64() != u || skip.Uint64() != u {
		t.Fatalf("seed %d, alpha %v: equal states drew different uniforms", seed, alpha)
	}
	return fallbacks
}

// TestSkipDirichletMatchesDraw: the two halves write the one-shot
// Dirichlet's bits, and they and SkipDirichlet consume exactly the
// uniforms it does, for each kind of shape alone and mixed — the
// generator's 61-country vectors are mostly clamped and sub-unit shapes
// with a few large ones. Clamped shapes underflow their boost, so the
// vectors made of them take the uniform fallback.
func TestSkipDirichletMatchesDraw(t *testing.T) {
	generatorLike := make([]float64, 61)
	for i := range generatorLike {
		generatorLike[i] = 1e-4
	}
	generatorLike[3], generatorLike[17], generatorLike[40] = 0.37, 2.9, 84
	for name, alpha := range map[string][]float64{
		"clamp":          {1e-4, 1e-4, 1e-4},
		"sub-unit":       {0.001, 0.2, 0.5, 0.999999},
		"one":            {1, 1, 1, 1},
		"large":          {1.0000001, 7.5, 120, 1e4},
		"mixed":          {1e-4, 0.3, 1, 2.5, 120, 1e-4, 1},
		"single":         {0.05},
		"generator-like": generatorLike,
	} {
		for _, seed := range []uint64{0, 1, 20110301, 1 << 63} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				if n := checkSkipDirichlet(t, seed, alpha, 200); name == "clamp" && n == 0 {
					t.Error("no round took the uniform fallback")
				}
			})
		}
	}
}

func FuzzSkipDirichlet(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4})
	f.Add(uint64(2), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(3), []byte{1, 6, 11, 16, 251})
	f.Add(uint64(4), []byte{2, 7, 12})
	f.Add(uint64(5), []byte{4, 9, 14, 255})
	f.Add(uint64(20110301), []byte{0, 0, 0, 3, 0, 0, 1, 0, 4, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, seed uint64, b []byte) {
		if len(b) > 256 {
			b = b[:256]
		}
		checkSkipDirichlet(t, seed, skipAlpha(b), 4)
	})
}

func TestDirichletPanicsOnMismatch(t *testing.T) {
	alpha := []float64{1, 1}
	for name, c := range map[string]struct{ draws, boosts []float64 }{
		"long draws":   {make([]float64, 3), make([]float64, 2)},
		"short draws":  {make([]float64, 1), make([]float64, 2)},
		"long boosts":  {make([]float64, 2), make([]float64, 3)},
		"short boosts": {make([]float64, 2), make([]float64, 1)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Dirichlet length mismatch did not panic")
				}
			}()
			FinishDirichlet(alpha, c.draws, c.boosts)
		})
	}
}

func TestZipfCDFShape(t *testing.T) {
	z := NewZipf(NewSource(1), 1.0, 50)
	if z.CDF(-1) != 0 {
		t.Fatal("CDF(-1) != 0")
	}
	if z.CDF(100) != 1 {
		t.Fatal("CDF beyond range != 1")
	}
	prev := 0.0
	for i := 0; i < z.N(); i++ {
		c := z.CDF(i)
		if c < prev {
			t.Fatalf("CDF not monotone at %d", i)
		}
		if math.Abs((c-prev)-z.Prob(i)) > 1e-12 {
			t.Fatalf("CDF/Prob inconsistent at %d", i)
		}
		prev = c
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Fatalf("CDF(last) = %v", prev)
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	z := NewZipf(NewSource(1), 1.0, 10)
	if z.Prob(-1) != 0 || z.Prob(10) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
	if z.N() != 10 {
		t.Fatalf("N = %d", z.N())
	}
}

func TestNewZipfPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero n":       func() { NewZipf(NewSource(1), 1, 0) },
		"negative exp": func() { NewZipf(NewSource(1), -1, 5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}
