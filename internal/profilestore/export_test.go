package profilestore

import (
	"reflect"
	"testing"

	"viewstags/internal/geo"
	"viewstags/internal/tagviews"
)

// TestExportFromDataRoundTrip pins the durability contract the
// checkpoint codec stands on: Export → FromData reproduces every
// persisted field bit-identically, and the rebuilt snapshot serves
// identical predictions.
func TestExportFromDataRoundTrip(t *testing.T) {
	res := fixture(t)
	base := buildSnap(t)

	// Exercise the fold path too, so the exported snapshot carries both
	// built and rebuilt vectors (they allocate differently).
	snap, err := Rebuild(base, []TagDelta{
		{Name: "zz-export-new", Views: mkvec(base.nC, 0, 50, 3, 25), Videos: 2},
		{Name: base.profiles[0].Name, Views: mkvec(base.nC, 1, 10)},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}

	data := snap.Export()
	got, err := FromData(data, res.Analysis.World)
	if err != nil {
		t.Fatal(err)
	}

	if got.Records() != snap.Records() {
		t.Fatalf("records %d != %d", got.Records(), snap.Records())
	}
	if got.NumTags() != snap.NumTags() {
		t.Fatalf("tags %d != %d", got.NumTags(), snap.NumTags())
	}
	for c := range snap.prior {
		if got.prior[c] != snap.prior[c] {
			t.Fatalf("prior[%d] %v != %v", c, got.prior[c], snap.prior[c])
		}
	}
	for i := range snap.profiles {
		a, b := snap.profiles[i], got.profiles[i]
		for c := range a.Views {
			if a.Views[c] != b.Views[c] {
				t.Fatalf("vec[%d][%d] %v != %v (not bit-identical)", i, c, b.Views[c], a.Views[c])
			}
		}
		if a.Views, b.Views = nil, nil; !reflect.DeepEqual(a, b) {
			t.Fatalf("profile %d differs: %+v vs %+v", i, a, b)
		}
	}

	// The derived index must answer identically: every name interns and
	// the ranking agrees.
	for i := range snap.profiles {
		id, ok := got.Lookup(snap.profiles[i].Name)
		if !ok || got.profiles[id].Name != snap.profiles[i].Name {
			t.Fatalf("lookup %q failed on the round-tripped snapshot", snap.profiles[i].Name)
		}
	}
	ta, tb := snap.TopProfiles(25), got.TopProfiles(25)
	for i := range ta {
		if ta[i].Name != tb[i].Name {
			t.Fatalf("top-%d ranking diverges at %d: %q vs %q", len(ta), i, ta[i].Name, tb[i].Name)
		}
	}

	// Predictions are the externally observable contract.
	names := res.Analysis.TagNames()[:10]
	names = append(names, "zz-export-new")
	for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
		pa := make([]float64, snap.nC)
		pb := make([]float64, snap.nC)
		ka := snap.PredictInto(pa, names, w)
		kb := got.PredictInto(pb, names, w)
		if ka != kb {
			t.Fatalf("known flag diverges under %v", w)
		}
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatalf("prediction[%d] %v != %v under %v", c, pb[c], pa[c], w)
			}
		}
	}
}

// TestFromDataRejectsMismatches pins the import-time validation: a
// snapshot saved under a different country table, or with inconsistent
// shapes, must refuse to load rather than misattribute views.
func TestFromDataRejectsMismatches(t *testing.T) {
	res := fixture(t)
	snap := buildSnap(t)
	data := snap.Export()

	other, err := geo.NewWorld([]geo.Country{
		{Code: "AA", Name: "Aland", NetUsersM: 1, PopulationM: 2},
		{Code: "BB", Name: "Besland", NetUsersM: 1, PopulationM: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromData(data, other); err == nil {
		t.Fatal("FromData accepted a mismatched world")
	}
	if _, err := FromData(data, nil); err == nil {
		t.Fatal("FromData accepted a nil world")
	}

	bad := data
	bad.Prior = data.Prior[:1]
	if _, err := FromData(bad, res.Analysis.World); err == nil {
		t.Fatal("FromData accepted a short prior")
	}
	bad = data
	bad.Profiles = append([]Profile(nil), data.Profiles...)
	bad.Profiles[0].Views = data.Profiles[0].Views[:1]
	if _, err := FromData(bad, res.Analysis.World); err == nil {
		t.Fatal("FromData accepted a profile whose sums are not world-sized")
	}
}

// mkvec builds a country vector with the given (index, value) pairs.
func mkvec(n int, pairs ...float64) []float64 {
	v := make([]float64, n)
	for i := 0; i+1 < len(pairs); i += 2 {
		v[int(pairs[i])] = pairs[i+1]
	}
	return v
}
