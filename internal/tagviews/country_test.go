package tagviews

import (
	"math"
	"testing"

	"viewstags/internal/geo"
)

func TestCountryProfileBrazil(t *testing.T) {
	f := testFixture(t)
	br := f.cat.World.MustByCode("BR")
	p, err := f.an.CountryProfile(br, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.TagViews <= 0 || p.DistinctTags == 0 {
		t.Fatalf("degenerate profile: %+v", p)
	}
	if len(p.TopTags) != 10 {
		t.Fatalf("got %d top tags", len(p.TopTags))
	}
	for i := 1; i < len(p.TopTags); i++ {
		if p.TopTags[i-1].Views < p.TopTags[i].Views {
			t.Fatal("top tags not descending")
		}
	}
	var shareSum float64
	for _, ts := range p.TopTags {
		if ts.Share < 0 || ts.Share > 1 {
			t.Fatalf("share %v out of range", ts.Share)
		}
		shareSum += ts.Share
	}
	if shareSum > 1+1e-9 {
		t.Fatalf("top-10 shares sum to %v", shareSum)
	}
	if p.Gini <= 0 || p.Gini >= 1 {
		t.Fatalf("Gini = %v; tag consumption must be skewed but not degenerate", p.Gini)
	}
}

func TestCountryProfileConsistentWithTagProfile(t *testing.T) {
	// views(t)[c] must agree between the two dual views.
	f := testFixture(t)
	br := f.cat.World.MustByCode("BR")
	cp, err := f.an.CountryProfile(br, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range cp.TopTags {
		tp, ok := f.an.TagProfile(ts.Name)
		if !ok {
			t.Fatalf("top tag %q has no profile", ts.Name)
		}
		if math.Abs(tp.Views[br]-ts.Views) > 1e-9*(1+ts.Views) {
			t.Fatalf("tag %q: country view %v vs tag view %v", ts.Name, ts.Views, tp.Views[br])
		}
	}
}

func TestCountryProfileOutOfRange(t *testing.T) {
	f := testFixture(t)
	if _, err := f.an.CountryProfile(geo.CountryID(-1), 5); err == nil {
		t.Fatal("negative country accepted")
	}
	if _, err := f.an.CountryProfile(geo.CountryID(f.cat.World.N()), 5); err == nil {
		t.Fatal("overflow country accepted")
	}
}

func TestNearestTagsFindsBrazilianNeighbours(t *testing.T) {
	f := testFixture(t)
	if _, ok := f.an.TagProfile("samba"); !ok {
		t.Skip("samba not sampled at this scale")
	}
	names, dists, err := f.an.NearestTags("favela", 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(dists) || len(names) == 0 {
		t.Fatalf("names/dists = %d/%d", len(names), len(dists))
	}
	for i := 1; i < len(dists); i++ {
		if dists[i-1] > dists[i] {
			t.Fatal("distances not ascending")
		}
	}
	// Another BR-anchored tag should be nearer to favela than a global
	// one: compare positions of samba and pop if both appear; otherwise
	// compare raw divergences.
	favela := f.an.tags["favela"].Views
	sambaJS := jsOrPanic(favela, f.an.tags["samba"].Views)
	popJS := jsOrPanic(favela, f.an.tags["pop"].Views)
	if sambaJS >= popJS {
		t.Fatalf("JS(favela,samba)=%v not below JS(favela,pop)=%v", sambaJS, popJS)
	}
}

func TestNearestTagsValidation(t *testing.T) {
	f := testFixture(t)
	if _, _, err := f.an.NearestTags("zzz-none", 3, 1); err == nil {
		t.Fatal("unknown tag accepted")
	}
	names, _, err := f.an.NearestTags("pop", 1<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) >= f.an.NumTags() {
		t.Fatal("nearest tags should exclude the query tag")
	}
}
