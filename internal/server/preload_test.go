package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/geo"
	"viewstags/internal/geocache"
	"viewstags/internal/ingest"
	"viewstags/internal/persist"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// tableAdvisory is the advisory as it was computed before /v1/preload
// ranked on demand, kept as the reference: score every video of the
// research catalog from a resident prediction table (tag-push) or its
// view total (pop-push), fully sort by score descending and index
// ascending, cut at slots. It shares no code with the
// served path — not the column, not the bounded selection.
func tableAdvisory(cat *synth.Catalog, predicted [][]float64, policy geocache.PolicyKind, c geo.CountryID, slots int) []string {
	type scored struct {
		v     int
		score float64
	}
	var cand []scored
	for v := range cat.Videos {
		vid := &cat.Videos[v]
		switch policy {
		case geocache.PolicyPopPush:
			cand = append(cand, scored{v, float64(vid.TotalViews)})
		case geocache.PolicyTagPush:
			if p := predicted[v]; p != nil && p[c] > 0 {
				cand = append(cand, scored{v, p[c] * float64(vid.TotalViews)})
			}
		}
	}
	sort.Slice(cand, func(a, b int) bool {
		if cand[a].score != cand[b].score {
			return cand[a].score > cand[b].score
		}
		return cand[a].v < cand[b].v
	})
	if slots > len(cand) {
		slots = len(cand)
	}
	ids := make([]string, slots)
	for i := range ids {
		ids[i] = cat.Videos[cand[i].v].ID
	}
	return ids
}

// wantTagPush is the reference tag-push advisory for snap under w.
func wantTagPush(res *pipeline.Result, snap *profilestore.Snapshot, w tagviews.Weighting, country string, slots int) []string {
	return tableAdvisory(res.Catalog, snap.PredictCatalog(res.Catalog, w), geocache.PolicyTagPush, res.World.MustByCode(country), slots)
}

// preloadIDs asks /v1/preload and returns the advised ids.
func preloadIDs(t *testing.T, srv *Server, country, policy, weighting string, slots int) []string {
	t.Helper()
	var resp PreloadResponse
	if code := do(t, srv, http.MethodPost, "/v1/preload",
		PreloadRequest{Country: country, Policy: policy, Slots: slots, Weighting: weighting}, &resp); code != http.StatusOK {
		t.Fatalf("preload %s/%s/%s/%d: status %d", country, policy, weighting, slots, code)
	}
	return resp.Videos
}

// shifted returns base with the view mass of its 20 highest-volume tags
// moved overwhelmingly into country c: a snapshot whose tag-push ranking
// for c is not base's.
func shifted(t *testing.T, base *profilestore.Snapshot, c geo.CountryID) *profilestore.Snapshot {
	t.Helper()
	var deltas []profilestore.TagDelta
	for _, p := range base.TopProfiles(20) {
		views := make([]float64, base.World().N())
		views[c] = 50 * p.TotalViews
		deltas = append(deltas, profilestore.TagDelta{Name: p.Name, Views: views, ID: -1})
	}
	next, err := profilestore.Rebuild(base, deltas, 0)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestPreloadOnDemandMatchesTablePath holds the on-demand advisory to the
// table path it replaced, on a catalog large enough for a 5 000-slot
// request to be a selection and not the whole ranking: one server gives
// the same ids as PredictCatalog under the request's weighting for every
// weighting × policy × country × slot count, and a column bit-equal to
// PredictCatalog's for every video under every weighting — at boot and
// after each of two ingest folds, the first of which makes a tag the
// catalog carries but the corpus never admitted known.
func TestPreloadOnDemandMatchesTablePath(t *testing.T) {
	const videos = 6000
	res, err := pipeline.FromSynthetic(videos, 20110301, alexa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	cat := res.Catalog
	served := cat.Served()
	if err := srv.SetCatalog(served); err != nil {
		t.Fatal(err)
	}
	acc, err := ingest.NewAccumulator(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableIngest(acc, time.Hour); err != nil {
		t.Fatal(err)
	}
	comp, err := ingest.NewCompactor(acc, time.Hour, func(d []profilestore.TagDelta, n int) error {
		return srv.ApplyDeltas(d, n, tagviews.WeightIDF)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	weightings := []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF}
	countries := []string{"BR", "US", "JP", "FR", "IN", "KR"}
	policies := []geocache.PolicyKind{geocache.PolicyPopPush, geocache.PolicyTagPush}
	buf := make([]float64, profilestore.ColumnLen(served))
	check := func(stage string) {
		t.Helper()
		snap := srv.store.Load()
		for _, w := range weightings {
			table := snap.PredictCatalog(cat, w)
			none := 0
			for _, code := range countries {
				c := res.World.MustByCode(code)
				col := snap.PredictColumn(buf, served, c, w)
				for v, p := range table {
					var want float64 // no prediction reads 0, which no policy ranks
					if p != nil {
						want = p[c]
					} else {
						none++
					}
					if math.Float64bits(col[v]) != math.Float64bits(want) {
						t.Fatalf("%s: %v column %s, video %d = %v, table says %v (row %v)", stage, w, code, v, col[v], want, p != nil)
					}
				}
			}
			if none == 0 {
				t.Fatalf("%s: every video has a prediction: the no-prediction case is not exercised", stage)
			}
		}
		for _, w := range weightings {
			table := snap.PredictCatalog(cat, w)
			for _, policy := range policies {
				for _, code := range countries {
					for _, slots := range []int{1, 64, 5000, videos + 1} {
						got := preloadIDs(t, srv, code, policy.String(), w.String(), slots)
						want := tableAdvisory(cat, table, policy, res.World.MustByCode(code), slots)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %v/%v/%s/%d: on-demand advisory differs from the table path's (%d vs %d ids)", stage, w, policy, code, slots, len(got), len(want))
						}
					}
				}
			}
		}
	}
	check("boot")

	// A tag some catalog video carries but the snapshot does not know:
	// every video that carried it was dropped by the §2 filter.
	unknown := ""
	for _, id := range served.TagIDs {
		if _, ok := snap.Lookup(served.TagNames[id]); !ok {
			unknown = served.TagNames[id]
			break
		}
	}
	if unknown == "" {
		t.Fatal("the snapshot knows every tag the catalog carries")
	}
	fold := func(events []IngestEvent) {
		t.Helper()
		if code := do(t, srv, http.MethodPost, "/v1/ingest", IngestRequest{Events: events}, nil); code != http.StatusOK {
			t.Fatalf("ingest: status %d", code)
		}
		if folded, err := comp.FoldNow(); err != nil || !folded {
			t.Fatalf("fold: %v folded=%v", err, folded)
		}
	}
	fold([]IngestEvent{{Video: "on-demand-1", Tags: []string{unknown}, Country: "KR", Views: 1e6, Upload: true}})
	if _, ok := srv.store.Load().Lookup(unknown); !ok {
		t.Fatalf("fold did not make %q known", unknown)
	}
	check("fold 1 (a previously unknown tag known)")

	var events []IngestEvent
	for i, p := range snap.TopProfiles(30) {
		events = append(events, IngestEvent{Video: fmt.Sprintf("on-demand-2-%d", i), Tags: []string{p.Name, unknown},
			Country: countries[i%len(countries)], Views: 20 * p.TotalViews, Upload: i%3 == 0})
	}
	fold(events)
	check("fold 2 (the head of the vocabulary moved)")
}

// TestPreloadDoesNotWaitForInstall: an install holds s.mu for a whole
// Rebuild, and /v1/preload used to read its catalog state under the same
// lock — every fold stalled the advisories behind it. The handler takes
// no install lock now.
func TestPreloadDoesNotWaitForInstall(t *testing.T) {
	srv, _, _ := freshServer(t, true, 0, time.Hour)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/preload", strings.NewReader(`{"country":"BR","slots":8}`)))
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("preload during an install: status %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("/v1/preload waits for the install lock")
	}
}

// TestPreloadFollowsBareSwap: the advisory is computed from the store's
// current snapshot, so a Swap that bypasses the install lock cannot leave it ranking
// by the snapshot before.
func TestPreloadFollowsBareSwap(t *testing.T) {
	srv, _, _ := freshServer(t, true, 0, time.Hour)
	res, _ := fixture(t)
	base := srv.store.Load()
	next := shifted(t, base, res.World.MustByCode("JP"))
	if _, err := srv.store.Swap(next); err != nil {
		t.Fatal(err)
	}
	got := preloadIDs(t, srv, "JP", "tag-push", "", 32)
	if want := wantTagPush(res, next, tagviews.WeightIDF, "JP", 32); !reflect.DeepEqual(got, want) {
		t.Fatalf("advisory after a bare swap = %v, want the swapped-in snapshot's ranking %v", got, want)
	}
	if stale := wantTagPush(res, base, tagviews.WeightIDF, "JP", 32); reflect.DeepEqual(got, stale) {
		t.Fatal("the swapped-in snapshot ranks JP as the old one did: a stale ranking would pass")
	}
}

// TestPreloadWeightingSurvivesTransfer: a slice transfer installs only a
// snapshot, so a request's weighting ranks as it did before it. A node
// asked to rank by views answers /v1/preload byte for byte the same
// before and after an import of an empty slice and an adopt of its own
// identity, neither of which changes a profile.
func TestPreloadWeightingSurvivesTransfer(t *testing.T) {
	res, _ := fixture(t)
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetCatalog(res.Catalog.Served()); err != nil {
		t.Fatal(err)
	}
	const country, slots = "BR", 64
	if reflect.DeepEqual(wantTagPush(res, snap, tagviews.WeightByViews, country, slots), wantTagPush(res, snap, tagviews.WeightIDF, country, slots)) {
		t.Fatal("by-views and IDF rank the same videos: an ignored weighting would pass")
	}
	preload := func() string {
		t.Helper()
		body, _ := json.Marshal(PreloadRequest{Country: country, Policy: "tag-push", Slots: slots, Weighting: "by-views"})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/preload", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("preload: status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	want := preload()

	var empty bytes.Buffer
	if err := persist.WriteSnapshot(&empty, persist.CheckpointMeta{}, snap.ExportFiltered(func(string) bool { return false })); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/internal/transfer/import", &empty))
	if rec.Code != http.StatusOK {
		t.Fatalf("import: status %d: %s", rec.Code, rec.Body)
	}
	if got := preload(); got != want {
		t.Fatalf("after an empty import /v1/preload answers\n%s\nwant\n%s", got, want)
	}
	if code := do(t, srv, http.MethodPost, "/internal/transfer/adopt", TransferAdoptRequest{Index: 0, Shards: 1, Replicas: 1}, nil); code != http.StatusOK {
		t.Fatalf("adopt: status %d", code)
	}
	if got := preload(); got != want {
		t.Fatalf("after an adopt /v1/preload answers\n%s\nwant\n%s", got, want)
	}
}
