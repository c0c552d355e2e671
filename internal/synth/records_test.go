package synth

import (
	"slices"
	"testing"

	"viewstags/internal/dataset"
	"viewstags/internal/mapchart"
)

func TestRecordsMatchCatalog(t *testing.T) {
	cat := testCatalog(t)
	recs := cat.Records()
	if len(recs) != len(cat.Videos) {
		t.Fatalf("got %d records", len(recs))
	}
	for i := range recs {
		v := &cat.Videos[i]
		r := &recs[i]
		if r.VideoID != v.ID || r.TotalViews != v.TotalViews {
			t.Fatalf("record %d identity mismatch", i)
		}
		if len(r.Tags) != len(v.TagIDs) {
			t.Fatalf("record %d has %d tags, want %d", i, len(r.Tags), len(v.TagIDs))
		}
	}
}

func TestRecordsFilteringMatchesPopStates(t *testing.T) {
	cat := testCatalog(t)
	clean := dataset.Filter(cat.World, cat.Records())
	s := cat.Stats()
	// Untagged videos can be in any pop state; the filter drops them
	// first. Kept = tagged AND popOK.
	keptWant := 0
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if len(v.TagIDs) > 0 && v.PopState == PopStateOK && v.TotalViews > 0 {
			keptWant++
		}
	}
	if clean.Report.Kept != keptWant {
		t.Fatalf("filter kept %d, want %d (stats: %v, report: %v)",
			clean.Report.Kept, keptWant, s, clean.Report)
	}
	if clean.Report.Untagged != s.Untagged {
		t.Fatalf("untagged %d, want %d", clean.Report.Untagged, s.Untagged)
	}
}

// TestTaggedOKVideosAreAdmitted pins the premise a streaming boot counts
// an unread video on without building its record: every tagged video in
// PopStateOK passes the §2 filter. Its views are positive and the world's
// traffic is (geo TestTrafficStrictlyPositive), so its vector reaches the
// chart's maximum somewhere and densifies.
func TestTaggedOKVideosAreAdmitted(t *testing.T) {
	cat, err := Generate(DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	var rec dataset.Record
	var report dataset.FilterReport
	tagged := 0
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if len(v.TagIDs) == 0 || v.PopState != PopStateOK {
			continue
		}
		tagged++
		if top := slices.Max(v.PopVector); top != mapchart.MaxIntensity {
			t.Fatalf("video %d: Map-Chart maximum %d, want %d", i, top, mapchart.MaxIntensity)
		}
		cat.RecordInto(&rec, v)
		if _, ok := report.Admit(cat.World, &rec, nil); !ok {
			t.Fatalf("video %d, tagged and in PopStateOK, was dropped: %v", i, report)
		}
	}
	if report.Kept != tagged || tagged < 10000 {
		t.Fatalf("kept %d of %d tagged videos in PopStateOK", report.Kept, tagged)
	}
}

func TestRecordsDensifiedPopMatchesGroundTruth(t *testing.T) {
	cat := testCatalog(t)
	recs := cat.Records()
	for i := range recs {
		v := &cat.Videos[i]
		if v.PopState != PopStateOK {
			continue
		}
		pop, err := recs[i].PopVector(cat.World)
		if err != nil {
			if v.TotalViews == 0 {
				continue // zero-view video quantizes to all-zero, correctly rejected
			}
			t.Fatalf("record %d: %v", i, err)
		}
		for c, want := range v.PopVector {
			if pop[c] != want {
				t.Fatalf("record %d country %d: %d, want %d", i, c, pop[c], want)
			}
		}
	}
}
