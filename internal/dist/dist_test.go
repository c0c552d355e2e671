package dist

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalize(t *testing.T) {
	p := Normalize([]float64{2, 0, 6})
	want := []float64{0.25, 0, 0.75}
	for i := range want {
		if !almostEq(p[i], want[i], 1e-15) {
			t.Fatalf("Normalize[%d] = %v, want %v", i, p[i], want[i])
		}
	}
	zero := Normalize([]float64{0, 0})
	if len(zero) != 2 || zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("Normalize of zero mass = %v, want zeros", zero)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 3, 3, 2}); got != 1 {
		t.Fatalf("ArgMax tie = %d, want 1 (lowest index)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %d, want -1", got)
	}
	if got := ArgMax([]float64{0, 0}); got != -1 {
		t.Fatalf("ArgMax of zero mass = %d, want -1", got)
	}
}

func TestJS(t *testing.T) {
	p := []float64{1, 0, 0}
	q := []float64{0, 1, 0}
	js, err := JS(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(js, 1, 1e-12) {
		t.Fatalf("JS of disjoint distributions = %v, want 1 bit", js)
	}
	js, err = JS(p, []float64{4, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(js, 0, 1e-12) {
		t.Fatalf("JS of identical distributions = %v, want 0", js)
	}
	// Symmetry on an asymmetric pair.
	a := []float64{3, 1, 2}
	b := []float64{1, 5, 1}
	ab, _ := JS(a, b)
	ba, _ := JS(b, a)
	if !almostEq(ab, ba, 1e-15) {
		t.Fatalf("JS not symmetric: %v vs %v", ab, ba)
	}
	if _, err := JS(p, []float64{1, 2}); err == nil {
		t.Fatal("JS length mismatch not rejected")
	}
	if _, err := JS(p, []float64{0, 0, 0}); err == nil {
		t.Fatal("JS zero-mass vector not rejected")
	}
}

func TestTV(t *testing.T) {
	tv, err := TV([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tv, 1, 1e-15) {
		t.Fatalf("TV of disjoint = %v, want 1", tv)
	}
	tv, _ = TV([]float64{1, 1}, []float64{3, 3})
	if !almostEq(tv, 0, 1e-15) {
		t.Fatalf("TV of proportional = %v, want 0", tv)
	}
	if _, err := TV([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("TV length mismatch not rejected")
	}
}

func TestMix(t *testing.T) {
	m, err := Mix([][]float64{{1, 0}, {0, 5}}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Components are normalized before mixing: equal weights give 50/50
	// regardless of raw magnitude.
	if !almostEq(m[0], 0.5, 1e-15) || !almostEq(m[1], 0.5, 1e-15) {
		t.Fatalf("Mix = %v, want [0.5 0.5]", m)
	}
	if _, err := Mix(nil, nil); err == nil {
		t.Fatal("empty mixture not rejected")
	}
	if _, err := Mix([][]float64{{1, 0}}, []float64{0}); err == nil {
		t.Fatal("zero total weight not rejected")
	}
	if _, err := Mix([][]float64{{1, 0}, {1}}, []float64{1, 1}); err == nil {
		t.Fatal("component length mismatch not rejected")
	}
}

func TestTopShare(t *testing.T) {
	share, top := TopShare([]float64{5, 0, 3, 2}, 2)
	if len(top) != 2 || top[0] != 0 || top[1] != 2 {
		t.Fatalf("TopShare indices = %v, want [0 2]", top)
	}
	if !almostEq(share, 0.8, 1e-15) {
		t.Fatalf("TopShare mass = %v, want 0.8", share)
	}
	// Zero entries carry no signal and are never returned.
	_, top = TopShare([]float64{1, 0, 0}, 3)
	if len(top) != 1 {
		t.Fatalf("TopShare returned zero-mass entries: %v", top)
	}
	share, top = TopShare([]float64{0, 0}, 2)
	if share != 0 || top != nil {
		t.Fatalf("TopShare of zero mass = (%v, %v), want (0, nil)", share, top)
	}
}

func TestEffectiveCountries(t *testing.T) {
	if got := EffectiveCountries([]float64{1, 1, 1, 1}); !almostEq(got, 4, 1e-12) {
		t.Fatalf("uniform-4 perplexity = %v, want 4", got)
	}
	if got := EffectiveCountries([]float64{7, 0, 0}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("point-mass perplexity = %v, want 1", got)
	}
	if got := EffectiveCountries([]float64{0, 0}); got != 0 {
		t.Fatalf("zero-mass perplexity = %v, want 0", got)
	}
}

func TestClassify(t *testing.T) {
	n := 40
	point := make([]float64, n)
	point[3] = 1
	if got := Classify(point); got != SpreadLocal {
		t.Fatalf("point mass classified %v", got)
	}
	cluster := make([]float64, n)
	for i := 0; i < 4; i++ {
		cluster[i] = 1
	}
	if got := Classify(cluster); got != SpreadRegional {
		t.Fatalf("4-country cluster classified %v", got)
	}
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1
	}
	if got := Classify(uniform); got != SpreadGlobal {
		t.Fatalf("uniform classified %v", got)
	}
	if got := Classify(make([]float64, n)); got != SpreadGlobal {
		t.Fatalf("zero mass classified %v", got)
	}
}

func TestSpreadString(t *testing.T) {
	for s, want := range map[Spread]string{
		SpreadLocal: "local", SpreadRegional: "regional", SpreadGlobal: "global",
	} {
		if s.String() != want {
			t.Fatalf("Spread(%d).String() = %q, want %q", int(s), s, want)
		}
	}
}

// TestTopShareSelectMatchesSort cross-checks the small-k selection path
// against the sort path on adversarial inputs (ties, zeros, negatives
// of signal).
func TestTopShareSelectMatchesSort(t *testing.T) {
	vecs := [][]float64{
		{5, 5, 5, 5, 1, 1, 1, 1, 0, 0, 9, 9},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	for _, xs := range vecs {
		for k := 1; k <= len(xs); k++ {
			wantShare, want := TopShare(append([]float64(nil), xs...), k)
			got := topSelect(nil, xs, k)
			if len(want) < k || k >= len(xs)/2 {
				// Selection path only runs for small k; compare anyway.
				if len(got) > k {
					t.Fatalf("topSelect returned %d > k=%d", len(got), k)
				}
			}
			if len(got) != len(want) && k < len(xs)/2 {
				t.Fatalf("k=%d xs=%v: select %v, sort %v", k, xs, got, want)
			}
			var mass float64
			for i := range got {
				mass += xs[got[i]]
				if i < len(want) && got[i] != want[i] {
					t.Fatalf("k=%d xs=%v: select %v, sort %v", k, xs, got, want)
				}
			}
			if k < len(xs)/2 {
				if gotShare := mass / Sum(xs); gotShare != wantShare {
					t.Fatalf("k=%d xs=%v: share %v != %v", k, xs, gotShare, wantShare)
				}
			}
		}
	}
}

// TestTopShareIntoMatchesTopShare: the Into form answers TopShare's
// indices and share for every k on both paths, into scratch that already
// held another answer, and allocates nothing when the scratch has the
// room its doc asks for.
func TestTopShareIntoMatchesTopShare(t *testing.T) {
	vecs := [][]float64{
		{5, 5, 5, 5, 1, 1, 1, 1, 0, 0, 9, 9},
		{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0},
		{3, math.NaN(), 2, math.Inf(1), -1, 7},
	}
	scratch := make([]int, 0, 13)
	for _, xs := range vecs {
		for k := 0; k <= len(xs)+1; k++ {
			wantShare, want := TopShare(xs, k)
			for i := range scratch[:cap(scratch)] {
				scratch[:cap(scratch)][i] = -1
			}
			gotShare, got := TopShareInto(scratch, xs, k)
			if math.Float64bits(gotShare) != math.Float64bits(wantShare) || len(got) != len(want) || (got == nil) != (want == nil) {
				t.Fatalf("k=%d xs=%v: Into (%v, %v), TopShare (%v, %v)", k, xs, gotShare, got, wantShare, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d xs=%v: Into %v, TopShare %v", k, xs, got, want)
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { TopShareInto(scratch, xs, k) }); allocs != 0 {
				t.Fatalf("k=%d xs=%v: %v allocations into scratch of %d", k, xs, allocs, cap(scratch))
			}
		}
	}
}
