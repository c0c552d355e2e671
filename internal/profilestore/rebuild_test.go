package profilestore

import (
	"reflect"
	"testing"

	"viewstags/internal/dist"
	"viewstags/internal/tagviews"
)

// deltaFor builds a TagDelta putting `views` view mass on one country.
func deltaFor(t *testing.T, s *Snapshot, name string, country string, views float64, videos int) TagDelta {
	t.Helper()
	c, ok := s.World().ByCode(country)
	if !ok {
		t.Fatalf("unknown country %s", country)
	}
	vec := make([]float64, s.World().N())
	vec[c] = views
	return TagDelta{Name: name, Views: vec, Videos: videos}
}

// TestRebuildFoldsDeltaMath pins the incremental fold to first
// principles: the rebuilt vector is the base's sums plus the delta, and
// the total is the old total plus the delta's — exactly, as sums of
// multiples of the view unit are.
func TestRebuildFoldsDeltaMath(t *testing.T) {
	base := buildSnap(t)
	id, ok := base.Lookup("pop")
	if !ok {
		t.Fatal("fixture has no 'pop' tag")
	}
	oldP := base.profiles[id]
	oldVec := append([]float64(nil), base.profiles[id].Views...)

	jp := base.World().MustByCode("JP")
	const added = 5e6
	d := deltaFor(t, base, "pop", "JP", added, 3)
	next, err := Rebuild(base, []TagDelta{d}, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Identity, id, and bookkeeping.
	nid, ok := next.Lookup("pop")
	if !ok || nid != id {
		t.Fatalf("pop re-interned: id %d -> %d (ok=%v)", id, nid, ok)
	}
	p := &next.profiles[id]
	if p.TotalViews != oldP.TotalViews+added || p.Videos != oldP.Videos+3 {
		t.Fatalf("profile mass not folded: %+v (was %+v)", p, oldP)
	}
	if next.Records() != base.Records()+3 {
		t.Fatalf("records %d, want %d", next.Records(), base.Records()+3)
	}

	// Vector math: oldVec + delta, bit for bit, and its total is the
	// profile's.
	got := next.profiles[id].Views
	for c := range oldVec {
		want := oldVec[c]
		if c == int(jp) {
			want += added
		}
		if got[c] != want {
			t.Fatalf("vec[%d] = %v, want %v", c, got[c], want)
		}
	}
	if s := dist.Sum(got); s != p.TotalViews {
		t.Fatalf("rebuilt vector sums to %v, TotalViews %v", s, p.TotalViews)
	}
	if want := got[p.TopCountry] / p.TotalViews; p.TopShare != want {
		t.Fatalf("top share %v, want %v", p.TopShare, want)
	}

	// Base is untouched (copy-on-write, not in-place).
	for c := range oldVec {
		if base.profiles[id].Views[c] != oldVec[c] {
			t.Fatal("Rebuild mutated the base snapshot")
		}
	}
	if bp := &base.profiles[id]; bp.TotalViews != oldP.TotalViews {
		t.Fatal("Rebuild mutated the base profile")
	}
}

// TestRebuildSharesUntouchedVectors asserts the copy-on-write contract:
// every tag the deltas don't mention keeps the exact base vector slice.
func TestRebuildSharesUntouchedVectors(t *testing.T) {
	base := buildSnap(t)
	id, ok := base.Lookup("pop")
	if !ok {
		t.Fatal("fixture has no 'pop' tag")
	}
	d := deltaFor(t, base, "pop", "BR", 1000, 0)
	next, err := Rebuild(base, []TagDelta{d}, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i := int32(0); i < int32(base.NumTags()); i++ {
		bv, nv := base.profiles[i].Views, next.profiles[i].Views
		if i == id {
			if &bv[0] == &nv[0] {
				t.Fatal("touched tag shares its vector with base")
			}
			continue
		}
		if &bv[0] != &nv[0] {
			t.Fatalf("untouched tag %q got a fresh vector", base.profiles[i].Name)
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no untouched tags checked")
	}
}

// TestRebuildInternsNewTags covers the fresh-upload path: a tag absent
// from base must be interned with an id after base's, found by Lookup,
// ranked by TopProfiles, and predicted from.
func TestRebuildInternsNewTags(t *testing.T) {
	base := buildSnap(t)
	if _, ok := base.Lookup("zz-brand-new"); ok {
		t.Fatal("test tag already in fixture")
	}
	// Two deltas for the same new tag must merge; two distinct new tags
	// must intern in name order for determinism.
	deltas := []TagDelta{
		deltaFor(t, base, "zz-brand-new", "BR", 800, 1),
		deltaFor(t, base, "aa-also-new", "JP", 500, 1),
		deltaFor(t, base, "zz-brand-new", "BR", 200, 0),
	}
	next, err := Rebuild(base, deltas, 2)
	if err != nil {
		t.Fatal(err)
	}
	if next.NumTags() != base.NumTags()+2 {
		t.Fatalf("%d tags, want %d", next.NumTags(), base.NumTags()+2)
	}
	aID, ok := next.Lookup("aa-also-new")
	if !ok {
		t.Fatal("new tag aa-also-new not interned")
	}
	zID, ok := next.Lookup("zz-brand-new")
	if !ok {
		t.Fatal("new tag zz-brand-new not interned")
	}
	if aID != int32(base.NumTags()) || zID != int32(base.NumTags())+1 {
		t.Fatalf("new ids %d,%d — want appended in name order %d,%d",
			aID, zID, base.NumTags(), base.NumTags()+1)
	}
	z := &next.profiles[zID]
	if z.TotalViews != 1000 || z.Videos != 1 {
		t.Fatalf("merged new-tag profile wrong: %+v", z)
	}
	br := next.World().MustByCode("BR")
	if z.TopCountry != br || next.profiles[zID].Views[br] != 1000 || z.TopShare != 1 {
		t.Fatalf("new tag's mass not on BR: %+v vec[BR]=%v", z, next.profiles[zID].Views[br])
	}
	if z.Spread != dist.SpreadLocal {
		t.Fatalf("single-country tag classified %v, want local", z.Spread)
	}
	// The new tag is predictable and peaks where it was ingested.
	dst := make([]float64, next.World().N())
	if !next.PredictInto(dst, []string{"zz-brand-new"}, tagviews.WeightIDF) {
		t.Fatal("new tag not known to the predictor")
	}
	if dist.ArgMax(dst) != int(br) {
		t.Fatalf("new tag predicts country %d, want BR (%d)", dist.ArgMax(dst), br)
	}
	// And base still doesn't know it.
	if _, ok := base.Lookup("zz-brand-new"); ok {
		t.Fatal("Rebuild mutated base's shard maps")
	}
}

// TestRebuildDeterministic: identical inputs produce identical snapshots.
func TestRebuildDeterministic(t *testing.T) {
	base := buildSnap(t)
	deltas := []TagDelta{
		deltaFor(t, base, "pop", "JP", 123, 1),
		deltaFor(t, base, "newtag-b", "BR", 50, 1),
		deltaFor(t, base, "newtag-a", "US", 70, 1),
	}
	a, err := Rebuild(base, deltas, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rebuild(base, deltas, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTags() != b.NumTags() || a.Records() != b.Records() {
		t.Fatal("rebuilds disagree on shape")
	}
	for i := int32(0); i < int32(a.NumTags()); i++ {
		pa, pb := a.profiles[i], b.profiles[i]
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("profiles diverge at %d: %+v != %+v", i, pa, pb)
		}
	}
}

// TestRebuildByViewsReordered: enough new mass must move a tag up the
// volume ranking TopProfiles serves.
func TestRebuildByViewsReordered(t *testing.T) {
	base := buildSnap(t)
	top := base.TopProfiles(1)[0]
	// Ingest a brand-new tag with double the current leader's mass.
	d := deltaFor(t, base, "zz-viral", "US", top.TotalViews*2, 1)
	next, err := Rebuild(base, []TagDelta{d}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.TopProfiles(1)[0].Name; got != "zz-viral" {
		t.Fatalf("new leader %q, want zz-viral", got)
	}
}

// TestRebuildSwapCompatible: the rebuilt snapshot must pass Store.Swap's
// world-compatibility gate against its base.
func TestRebuildSwapCompatible(t *testing.T) {
	base := buildSnap(t)
	st, err := NewStore(base)
	if err != nil {
		t.Fatal(err)
	}
	next, err := Rebuild(base, []TagDelta{deltaFor(t, base, "pop", "BR", 1, 0)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Swap(next); err != nil {
		t.Fatalf("swap of rebuilt snapshot rejected: %v", err)
	}
}

func TestRebuildErrors(t *testing.T) {
	base := buildSnap(t)
	if _, err := Rebuild(nil, nil, 0); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := Rebuild(base, nil, -1); err == nil {
		t.Fatal("negative record delta accepted")
	}
	if _, err := Rebuild(base, []TagDelta{{Name: "x", Views: make([]float64, 3)}}, 0); err == nil {
		t.Fatal("wrong-length delta accepted")
	}
	if _, err := Rebuild(base, []TagDelta{{Name: "", Views: make([]float64, base.World().N())}}, 0); err == nil {
		t.Fatal("nameless delta accepted")
	}
	if _, err := Rebuild(base, []TagDelta{{Name: "x", Views: make([]float64, base.World().N()), Videos: -1}}, 0); err == nil {
		t.Fatal("negative video count accepted")
	}
	// Empty fold is legal and cheap: everything shared.
	next, err := Rebuild(base, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next.NumTags() != base.NumTags() || next.Records() != base.Records() {
		t.Fatal("empty fold changed shape")
	}
}
