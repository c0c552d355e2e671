package tagviews

import (
	"math"
	"reflect"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/geo"
)

// TestBuilderMatchesBatchBuild: every entry point runs the one fold, in
// record order, so they agree bit for bit — Build (the fixture), a
// Builder fed record by record, BuildParallel, and a non-retaining
// Aggregator. Merging split halves sums each tag as (first half) +
// (second half), a different association of the same terms: counts and
// view totals (integer-valued) stay exact, fields agree to rounding.
func TestBuilderMatchesBatchBuild(t *testing.T) {
	f := testFixture(t)
	world, recs, pop := f.cat.World, f.clean.Records, f.clean.Pop
	newBuilder := func(lo, hi int) *Builder {
		b, err := NewBuilder(world, f.pyt)
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			b.Add(recs[i], pop[i])
		}
		return b
	}
	assertAnalysesEqual(t, f.an, newBuilder(0, len(recs)).Finish(), 0)

	par, err := BuildParallel(world, recs, pop, f.pyt, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysesEqual(t, f.an, par, 0)

	g, err := NewAggregator(world, f.pyt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		g.Add(&recs[i], pop[i])
	}
	assertAggregatesEqual(t, &f.an.Aggregate, g.Finish(), 0)

	half := len(recs) / 2
	merged := newBuilder(0, half)
	if err := merged.Merge(newBuilder(half, len(recs))); err != nil {
		t.Fatal(err)
	}
	assertAnalysesEqual(t, f.an, merged.Finish(), 1e-12)
}

// TestAggregatorOwnsFilter: an owns filter drops tags, never records — the
// slice's sums are bit for bit the whole aggregate's, and N stays the
// corpus's.
func TestAggregatorOwnsFilter(t *testing.T) {
	f := testFixture(t)
	owns := func(tag string) bool { return len(tag)%2 == 0 }
	g, err := NewAggregator(f.cat.World, f.pyt, owns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.clean.Records {
		g.Add(&f.clean.Records[i], f.clean.Pop[i])
	}
	got := g.Finish()
	if got.N() != f.an.N() || got.Skipped() != f.an.Skipped() {
		t.Fatalf("N/skipped = %d/%d, want the corpus's %d/%d", got.N(), got.Skipped(), f.an.N(), f.an.Skipped())
	}
	kept := 0
	for _, name := range f.an.TagNames() {
		wp, _ := f.an.TagProfile(name)
		gp, ok := got.TagProfile(name)
		if ok != owns(name) {
			t.Fatalf("tag %q: present=%v, owned=%v", name, ok, owns(name))
		}
		if !ok {
			continue
		}
		kept++
		if wp.Videos != gp.Videos || wp.TotalViews != gp.TotalViews || !sameField(wp.Views, gp.Views, 0) {
			t.Fatalf("owned tag %q differs from the whole aggregate's", name)
		}
	}
	if kept == 0 || kept != got.NumTags() {
		t.Fatalf("filter kept %d tags, aggregate holds %d", kept, got.NumTags())
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	f := testFixture(t)
	for _, workers := range []int{1, 2, 4, 7} {
		got, err := BuildParallel(f.cat.World, f.clean.Records, f.clean.Pop, f.pyt, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertAnalysesEqual(t, f.an, got, 0)
	}
}

// sameField compares two view fields entry by entry: bitwise at relTol 0,
// else to that relative tolerance.
func sameField(want, got []float64, relTol float64) bool {
	if len(want) != len(got) {
		return false
	}
	for c := range want {
		if want[c] != got[c] && math.Abs(want[c]-got[c]) > relTol*math.Abs(want[c]) {
			return false
		}
	}
	return true
}

func assertAggregatesEqual(t *testing.T, want, got *Aggregate, relTol float64) {
	t.Helper()
	if got.N() != want.N() || got.NumTags() != want.NumTags() || got.Skipped() != want.Skipped() {
		t.Fatalf("N/tags/skipped = %d/%d/%d, want %d/%d/%d",
			got.N(), got.NumTags(), got.Skipped(), want.N(), want.NumTags(), want.Skipped())
	}
	for _, name := range want.TagNames() {
		wp, _ := want.TagProfile(name)
		gp, ok := got.TagProfile(name)
		if !ok {
			t.Fatalf("tag %q missing", name)
		}
		if wp.Videos != gp.Videos || wp.TotalViews != gp.TotalViews {
			t.Fatalf("tag %q: %d videos / %v views, want %d / %v", name, gp.Videos, gp.TotalViews, wp.Videos, wp.TotalViews)
		}
		if !sameField(wp.Views, gp.Views, relTol) {
			t.Fatalf("tag %q: field %v, want %v (tolerance %g)", name, gp.Views, wp.Views, relTol)
		}
		// Same sums, same portrait: every derived measure too.
		if relTol == 0 && !reflect.DeepEqual(wp, gp) {
			t.Fatalf("tag %q: profile %+v, want %+v", name, *gp, *wp)
		}
	}
}

// TestAggregateSumsAndRelease: Sums hands out the one per-tag record the
// profile is derived from, and Release leaves an aggregate with its record
// counts and no tags — nothing a normalised vector could be read through.
func TestAggregateSumsAndRelease(t *testing.T) {
	f := testFixture(t)
	g, err := NewAggregator(f.cat.World, f.pyt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.clean.Records {
		g.Add(&f.clean.Records[i], f.clean.Pop[i])
	}
	agg := g.Finish()
	names := agg.TagNames()
	for _, name := range names {
		p, _ := agg.TagProfile(name)
		s, ok := agg.Sums(name)
		if !ok || s.Videos != p.Videos || s.TotalViews != p.TotalViews || &s.Views[0] != &p.Views[0] {
			t.Fatalf("tag %q: sums %+v (found %v) are not the profile's %d videos / %v views", name, s, ok, p.Videos, p.TotalViews)
		}
	}
	if _, ok := agg.Sums("no-such-tag"); ok {
		t.Fatal("sums found for an unknown tag")
	}
	n, skipped := agg.N(), agg.Skipped()
	agg.Release()
	if agg.NumTags() != 0 || len(agg.TagNames()) != 0 || len(agg.TopTags(5)) != 0 || len(agg.SpreadCensus()) != 0 {
		t.Fatalf("a released aggregate still lists %d tags", agg.NumTags())
	}
	for _, name := range names {
		if _, ok := agg.TagProfile(name); ok {
			t.Fatalf("a released aggregate still profiles %q", name)
		}
		if _, ok := agg.Sums(name); ok {
			t.Fatalf("a released aggregate still has sums for %q", name)
		}
	}
	if agg.N() != n || agg.Skipped() != skipped {
		t.Fatalf("release changed the record counts: %d/%d, were %d/%d", agg.N(), agg.Skipped(), n, skipped)
	}
}

func assertAnalysesEqual(t *testing.T, want, got *Analysis, relTol float64) {
	t.Helper()
	assertAggregatesEqual(t, &want.Aggregate, &got.Aggregate, relTol)
	for i := 0; i < want.N(); i++ {
		if want.Record(i).VideoID != got.Record(i).VideoID || !sameField(want.VideoField(i), got.VideoField(i), 0) {
			t.Fatalf("record %d (%s): per-video field differs", i, want.Record(i).VideoID)
		}
	}
}

func TestBuilderCountsSkips(t *testing.T) {
	f := testFixture(t)
	b, err := NewBuilder(f.cat.World, f.pyt)
	if err != nil {
		t.Fatal(err)
	}
	// An all-zero popularity vector cannot be reconstructed.
	rec := f.clean.Records[0]
	b.Add(rec, make([]int, f.cat.World.N()))
	an := b.Finish()
	if an.Skipped() != 1 {
		t.Fatalf("skipped = %d", an.Skipped())
	}
	if an.VideoField(0) != nil {
		t.Fatal("skipped record should have nil field")
	}
}

func TestMergeRejectsMismatchedWorlds(t *testing.T) {
	f := testFixture(t)
	otherWorld := geo.DefaultWorld() // distinct pointer
	a, err := NewBuilder(f.cat.World, f.pyt)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := NewBuilder(otherWorld, otherWorld.Traffic())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(bad); err == nil {
		t.Fatal("merge across worlds accepted")
	}
	// Same world, different estimate.
	est2, err := alexa.Estimate(f.cat.World, alexa.Config{NoiseSigma: 0.5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBuilder(f.cat.World, est2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b2); err == nil {
		t.Fatal("merge across traffic estimates accepted")
	}
}

func TestNewBuilderValidation(t *testing.T) {
	w := geo.DefaultWorld()
	if _, err := NewBuilder(w, []float64{1}); err == nil {
		t.Fatal("short estimate accepted")
	}
}

func TestBuildParallelValidation(t *testing.T) {
	f := testFixture(t)
	if _, err := BuildParallel(f.cat.World, f.clean.Records[:2], f.clean.Pop[:1], f.pyt, 2); err == nil {
		t.Fatal("mismatched inputs accepted")
	}
}
