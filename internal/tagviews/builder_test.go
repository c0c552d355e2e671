package tagviews

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestBuilderMatchesBatchBuild: the retaining Build (the fixture) and a
// non-retaining Aggregator fed record by record run the one fold, in
// record order, so they agree bit for bit.
func TestBuilderMatchesBatchBuild(t *testing.T) {
	f := testFixture(t)
	g, err := NewAggregator(f.cat.World, f.pyt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.clean.Records {
		g.Add(&f.clean.Records[i], f.clean.Pop[i])
	}
	assertAggregatesEqual(t, &f.an.Aggregate, g.Finish(), 0)
}

// TestAggregatorOwnsFilter: an owns filter drops tags, never records — the
// slice's sums are bit for bit the whole aggregate's, and N stays the
// corpus's. AddUnowned in place of Add for the records with no owned tag
// changes nothing.
func TestAggregatorOwnsFilter(t *testing.T) {
	f := testFixture(t)
	owns := func(tag string) bool { return len(tag)%2 == 0 }
	g, err := NewAggregator(f.cat.World, f.pyt, owns)
	if err != nil {
		t.Fatal(err)
	}
	unowned, err := NewAggregator(f.cat.World, f.pyt, owns)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for i := range f.clean.Records {
		rec := &f.clean.Records[i]
		g.Add(rec, f.clean.Pop[i])
		if slices.ContainsFunc(rec.Tags, owns) {
			unowned.Add(rec, f.clean.Pop[i])
		} else {
			unowned.AddUnowned()
			skipped++
		}
	}
	got := g.Finish()
	if skipped == 0 {
		t.Fatal("every record carries an owned tag: AddUnowned went unexercised")
	}
	assertAggregatesEqual(t, got, unowned.Finish(), 0)
	if got.N() != f.an.N() {
		t.Fatalf("N = %d, want the corpus's %d", got.N(), f.an.N())
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
	if got.N() != want.N() || got.NumTags() != want.NumTags() {
		t.Fatalf("N/tags = %d/%d, want %d/%d", got.N(), got.NumTags(), want.N(), want.NumTags())
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
		if !ok || s.Videos != p.Videos || s.Total() != p.TotalViews || &s.Views[0] != &p.Views[0] {
			t.Fatalf("tag %q: sums %+v (found %v) are not the profile's %d videos / %v views", name, s, ok, p.Videos, p.TotalViews)
		}
	}
	if _, ok := agg.Sums("no-such-tag"); ok {
		t.Fatal("sums found for an unknown tag")
	}
	n := agg.N()
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
	if agg.N() != n {
		t.Fatalf("release changed the record count: %d, was %d", agg.N(), n)
	}
}

// TestBuilderCountsSkips: a record that cannot be reconstructed (an
// all-zero popularity vector) is counted and adds to no tag.
func TestBuilderCountsSkips(t *testing.T) {
	f := testFixture(t)
	an, err := Build(f.cat.World, f.clean.Records[:1], [][]int{make([]int, f.cat.World.N())}, f.pyt)
	if err != nil {
		t.Fatal(err)
	}
	if an.N() != 1 || an.NumTags() != 0 {
		t.Fatalf("N/tags = %d/%d, want 1/0", an.N(), an.NumTags())
	}
}
