package profilestore

import (
	"math"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/dist"
	"viewstags/internal/pipeline"
	"viewstags/internal/tagviews"
)

// assertTotalsExact: every tag's TotalViews is the sum of its vector, bit
// for bit, in country order and in reverse — the sums are exact, so the
// order does not matter.
func assertTotalsExact(t *testing.T, what string, s *Snapshot) {
	t.Helper()
	if s.NumTags() == 0 {
		t.Fatalf("%s: no tags", what)
	}
	for id := int32(0); int(id) < s.NumTags(); id++ {
		p := &s.profiles[id]
		vec := p.Views
		var back float64
		for c := len(vec) - 1; c >= 0; c-- {
			if vec[c] < 0 {
				t.Fatalf("%s: tag %q has negative mass", what, p.Name)
			}
			back += vec[c]
		}
		if fwd := dist.Sum(vec); math.Float64bits(fwd) != math.Float64bits(p.TotalViews) || math.Float64bits(back) != math.Float64bits(p.TotalViews) {
			t.Fatalf("%s: tag %q TotalViews %v, its vector sums to %v (reversed %v)", what, p.Name, p.TotalViews, fwd, back)
		}
	}
}

// TestTotalViewsIsSumOfVector: TotalViews is the exact total of the
// tag's sums after every constructor — Build, BuildAggregate, Rebuild
// (a re-touched tag and a new one), MergeData and FromData — so it is at
// once the normalizer, the by-views weight and /v1/tags' total_views.
func TestTotalViewsIsSumOfVector(t *testing.T) {
	built := buildSnap(t)
	assertTotalsExact(t, "Build", built)

	boot, err := pipeline.BootSynthetic(3000, 20110301, alexa.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := BuildAggregate(boot.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	assertTotalsExact(t, "BuildAggregate", adopted)

	var deltas []TagDelta
	for i, name := range []string{"pop", "favela", "zz-exact-new", "pop"} {
		views := make([]float64, built.nC)
		views[i] = tagviews.RoundViews(1e6 / float64(3+i))
		views[i+7] = tagviews.RoundViews(123.456 * float64(i+1))
		deltas = append(deltas, TagDelta{Name: name, Views: views, Videos: 1})
	}
	folded, err := Rebuild(built, deltas, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertTotalsExact(t, "Rebuild", folded)

	merged, err := MergeData(adopted, folded.ExportFiltered(func(name string) bool { return name[0] < 'm' }))
	if err != nil {
		t.Fatal(err)
	}
	assertTotalsExact(t, "MergeData", merged)

	restored, err := FromData(merged.Export(), merged.World())
	if err != nil {
		t.Fatal(err)
	}
	assertTotalsExact(t, "FromData", restored)
}

// TestFoldCutsAtTheExactRange: folds whose sums reach 2⁵³−1 view units
// (tagviews.ViewUnit) — the top of the exact range, in one country's sum
// and in the tag's total — give the same bits under every cut of the same
// deltas.
func TestFoldCutsAtTheExactRange(t *testing.T) {
	base := buildSnap(t)
	const top = 1<<53 - 1 // units
	// Nine terms in three countries, each no round number of units,
	// totalling top; country 0's three alone total top - 5.
	units := [][3]int64{
		{top/3 + 1, 2, 2},
		{top/3 - 7, 1, 0},
		{top - 2*(top/3) + 1, 0, 0},
	}
	if sum := units[0][0] + units[1][0] + units[2][0] + 5; sum != top {
		t.Fatalf("country 0 sums to %d units, want %d", sum-5, top-5)
	}
	delta := func(k int) TagDelta {
		views := make([]float64, base.nC)
		for c := 0; c < 3; c++ {
			views[c] = float64(units[k][c]) * tagviews.ViewUnit
		}
		return TagDelta{Name: "zz-range", Views: views, Videos: 1}
	}
	fold := func(cuts ...[]int) *Snapshot {
		s := base
		for _, cut := range cuts {
			var ds []TagDelta
			for _, k := range cut {
				ds = append(ds, delta(k))
			}
			var err error
			if s, err = Rebuild(s, ds, 0); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	want := fold([]int{0, 1, 2})
	wv, _, wvec := want.Row("zz-range")
	if wv != float64(top)*tagviews.ViewUnit {
		t.Fatalf("total %v, want %v", wv, float64(top)*tagviews.ViewUnit)
	}
	for _, cuts := range [][][]int{{{0}, {1, 2}}, {{0, 1}, {2}}, {{2}, {0}, {1}}, {{1}, {2, 0}}} {
		got := fold(cuts...)
		gv, gn, gvec := got.Row("zz-range")
		if math.Float64bits(gv) != math.Float64bits(wv) || gn != 3 {
			t.Fatalf("cuts %v: total %v over %d videos, one fold %v over 3", cuts, gv, gn, wv)
		}
		for c := range wvec {
			if math.Float64bits(gvec[c]) != math.Float64bits(wvec[c]) {
				t.Fatalf("cuts %v: country %d sums to %v, one fold %v", cuts, c, gvec[c], wvec[c])
			}
		}
		for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
			wd, gd := make([]float64, base.nC), make([]float64, base.nC)
			want.PredictInto(wd, []string{"zz-range", "pop"}, w)
			got.PredictInto(gd, []string{"zz-range", "pop"}, w)
			for c := range wd {
				if math.Float64bits(gd[c]) != math.Float64bits(wd[c]) {
					t.Fatalf("cuts %v w=%v: country %d predicted %v, one fold %v", cuts, w, c, gd[c], wd[c])
				}
			}
		}
	}
}
