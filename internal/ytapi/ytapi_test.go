package ytapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"viewstags/internal/relgraph"
	"viewstags/internal/synth"
	"viewstags/internal/xrand"
)

var (
	cachedCat   *synth.Catalog
	cachedGraph *relgraph.Graph
)

func testWorldParts(t *testing.T) (*synth.Catalog, *relgraph.Graph) {
	t.Helper()
	if cachedCat == nil {
		cat, err := synth.Generate(synth.DefaultConfig(1500))
		if err != nil {
			t.Fatal(err)
		}
		g, err := relgraph.Build(cat, xrand.NewSource(3), relgraph.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedCat, cachedGraph = cat, g
	}
	return cachedCat, cachedGraph
}

func testServer(t *testing.T, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	cat, g := testWorldParts(t)
	srv, err := NewServer(cat, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, cfg.APIKey, ts.Client())
}

func TestMostPopularFeed(t *testing.T) {
	cat, _ := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	entries, err := client.MostPopular(context.Background(), "BR")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("got %d entries, want 10", len(entries))
	}
	// The feed must match the catalog's per-country oracle.
	br := cat.World.MustByCode("BR")
	want := cat.TopInCountry(br, 10)
	for i, e := range entries {
		if e.VideoIDString() != cat.Videos[want[i]].ID {
			t.Fatalf("entry %d = %s, want %s", i, e.VideoIDString(), cat.Videos[want[i]].ID)
		}
	}
}

func TestMostPopularUnknownRegion(t *testing.T) {
	_, client := testServer(t, DefaultServerConfig())
	_, err := client.MostPopular(context.Background(), "QQ")
	var se *ErrStatus
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("err = %v, want 400", err)
	}
	if se.Retryable() {
		t.Fatal("400 should not be retryable")
	}
}

func TestVideoEntryRoundTrip(t *testing.T) {
	cat, _ := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	// Find a video with a healthy popularity vector and tags.
	var want *synth.Video
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if v.PopState == synth.PopStateOK && len(v.TagIDs) > 0 && v.TotalViews > 0 {
			want = v
			break
		}
	}
	if want == nil {
		t.Fatal("no healthy video in catalog")
	}
	e, err := client.Video(context.Background(), want.ID)
	if err != nil {
		t.Fatal(err)
	}
	rec := e.ToRecord()
	if rec.VideoID != want.ID {
		t.Fatalf("id = %q", rec.VideoID)
	}
	if rec.TotalViews != want.TotalViews {
		t.Fatalf("views = %d, want %d", rec.TotalViews, want.TotalViews)
	}
	if len(rec.Tags) != len(want.TagIDs) {
		t.Fatalf("tags = %v", rec.Tags)
	}
	if rec.Uploader != cat.World.Country(want.Upload).Code {
		t.Fatalf("uploader = %q", rec.Uploader)
	}
	// The scraped chart must reproduce the non-zero part of PopVector.
	pop, err := rec.PopVector(cat.World)
	if err != nil {
		t.Fatalf("PopVector: %v", err)
	}
	for c, wantI := range want.PopVector {
		if pop[c] != wantI {
			t.Fatalf("country %d intensity %d, want %d", c, pop[c], wantI)
		}
	}
}

// TestAltServesJSONOnly pins the one representation the server renders:
// no alt and alt=json get the same JSON bytes; any other alt (GData's
// retired Atom default included) is a 400 in the API's error envelope.
func TestAltServesJSONOnly(t *testing.T) {
	cat, g := testWorldParts(t)
	srv, err := NewServer(cat, g, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	get := func(path string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}
	for _, path := range []string{
		"/feeds/api/videos/" + cat.Videos[0].ID,
		"/feeds/api/standardfeeds/BR/most_popular",
		"/feeds/api/videos/" + cat.Videos[0].ID + "/related?max-results=5",
	} {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		code, ct, bare := get(path)
		if code != http.StatusOK || ct != "application/json" {
			t.Fatalf("%s: status %d, content type %q", path, code, ct)
		}
		if _, _, asJSON := get(path + sep + "alt=json"); !bytes.Equal(bare, asJSON) {
			t.Fatalf("%s: alt=json body differs from the default body", path)
		}
		code, ct, body := get(path + sep + "alt=atom")
		var env struct {
			Error APIError `json:"error"`
		}
		if code != http.StatusBadRequest || ct != "application/json" {
			t.Fatalf("%s alt=atom: status %d, content type %q", path, code, ct)
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != http.StatusBadRequest || env.Error.Message == "" {
			t.Fatalf("%s alt=atom: body %q is not the error envelope (%v)", path, body, err)
		}
	}
}

func TestVideoNotFound(t *testing.T) {
	_, client := testServer(t, DefaultServerConfig())
	_, err := client.Video(context.Background(), "aaaaaaaaaaa")
	var se *ErrStatus
	if !errors.As(err, &se) || se.Code != 404 {
		t.Fatalf("err = %v, want 404", err)
	}
}

func TestRelatedPagination(t *testing.T) {
	cat, g := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	id := cat.Videos[0].ID
	ctx := context.Background()

	page1, total, err := client.Related(ctx, id, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(g.Related(0)) {
		t.Fatalf("total = %d, want %d", total, len(g.Related(0)))
	}
	if len(page1) != 8 {
		t.Fatalf("page1 size = %d", len(page1))
	}
	page2, _, err := client.Related(ctx, id, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	page3, _, err := client.Related(ctx, id, 17, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := append(append(page1, page2...), page3...)
	if len(got) != total {
		t.Fatalf("pages sum to %d, want %d", len(got), total)
	}
	for i, e := range got {
		wantID := cat.Videos[g.Related(0)[i]].ID
		if e.VideoIDString() != wantID {
			t.Fatalf("related %d = %s, want %s", i, e.VideoIDString(), wantID)
		}
	}
}

func TestRelatedPaginationBeyondEnd(t *testing.T) {
	cat, _ := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	entries, _, err := client.Related(context.Background(), cat.Videos[0].ID, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("beyond-end page has %d entries", len(entries))
	}
}

func TestAPIKeyEnforced(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.APIKey = "sekrit"
	cat, g := testWorldParts(t)
	srv, err := NewServer(cat, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	bad := NewClient(ts.URL, "", ts.Client())
	_, err = bad.MostPopular(context.Background(), "US")
	var se *ErrStatus
	if !errors.As(err, &se) || se.Code != 401 {
		t.Fatalf("keyless err = %v, want 401", err)
	}
	good := NewClient(ts.URL, "sekrit", ts.Client())
	if _, err := good.MostPopular(context.Background(), "US"); err != nil {
		t.Fatalf("keyed request failed: %v", err)
	}
}

func TestRateLimiting(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.RatePerSec = 1 // essentially everything after the burst is rejected
	cfg.Burst = 3
	_, client := testServer(t, cfg)
	ctx := context.Background()
	var limited int
	for i := 0; i < 10; i++ {
		_, err := client.MostPopular(ctx, "US")
		var se *ErrStatus
		if errors.As(err, &se) && se.Code == 403 {
			limited++
			if !se.Retryable() {
				t.Fatal("rate-limit rejection should be retryable")
			}
		}
	}
	if limited < 5 {
		t.Fatalf("only %d/10 requests rate-limited", limited)
	}
}

func TestFaultInjection(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.FaultRate = 0.5
	cfg.FaultSeed = 42
	_, client := testServer(t, cfg)
	ctx := context.Background()
	faults := 0
	for i := 0; i < 40; i++ {
		_, err := client.MostPopular(ctx, "US")
		var se *ErrStatus
		if errors.As(err, &se) && se.Code == 503 {
			faults++
		}
	}
	if faults < 10 || faults > 30 {
		t.Fatalf("faults = %d/40 at rate 0.5", faults)
	}
}

func TestPaginationValidation(t *testing.T) {
	cat, _ := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	_, _, err := client.Related(context.Background(), cat.Videos[0].ID, -3, 5)
	var se *ErrStatus
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("negative start err = %v", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	cat, g := testWorldParts(t)
	bad := DefaultServerConfig()
	bad.FaultRate = 2
	if _, err := NewServer(cat, g, bad); err == nil {
		t.Fatal("FaultRate 2 accepted")
	}
}

func TestUntaggedVideoServesEmptyKeywords(t *testing.T) {
	cat, _ := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if len(v.TagIDs) == 0 {
			e, err := client.Video(context.Background(), v.ID)
			if err != nil {
				t.Fatal(err)
			}
			rec := e.ToRecord()
			if len(rec.Tags) != 0 {
				t.Fatalf("untagged video produced tags %v", rec.Tags)
			}
			return
		}
	}
	t.Skip("no untagged video at this scale")
}

func TestCorruptMapScrapesButFailsValidation(t *testing.T) {
	cat, _ := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if v.PopState == synth.PopStateCorrupt {
			e, err := client.Video(context.Background(), v.ID)
			if err != nil {
				t.Fatal(err)
			}
			rec := e.ToRecord()
			if len(rec.PopCodes) == 0 {
				t.Fatal("corrupt map should still scrape codes")
			}
			if _, err := rec.PopVector(cat.World); err == nil {
				t.Fatal("all-zero map passed validation")
			}
			return
		}
	}
	t.Skip("no corrupt video at this scale")
}

func TestLatencyInjection(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Latency = 30 * time.Millisecond
	_, client := testServer(t, cfg)
	start := time.Now()
	if _, err := client.MostPopular(context.Background(), "US"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("latency not applied")
	}
}

func TestViewCountIsDecimalString(t *testing.T) {
	cat, _ := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	e, err := client.Video(context.Background(), cat.Videos[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strconv.ParseInt(e.Statistics.ViewCount, 10, 64); err != nil {
		t.Fatalf("viewCount %q not a decimal string", e.Statistics.ViewCount)
	}
}

func TestSearchEndpoint(t *testing.T) {
	cat, _ := testWorldParts(t)
	_, client := testServer(t, DefaultServerConfig())
	ctx := context.Background()

	entries, total, err := client.Search(ctx, "music", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || len(entries) == 0 {
		t.Fatal("search for the head tag returned nothing")
	}
	// Results are view-descending and every hit carries the tag.
	var prev int64 = -1
	for _, e := range entries {
		rec := e.ToRecord()
		found := false
		for _, tg := range rec.Tags {
			if tg == "music" {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("result %s does not carry the query tag", rec.VideoID)
		}
		if prev >= 0 && rec.TotalViews > prev {
			t.Fatal("search results not view-descending")
		}
		prev = rec.TotalViews
	}
	_ = cat
}

func TestSearchPaginationAndNormalization(t *testing.T) {
	_, client := testServer(t, DefaultServerConfig())
	ctx := context.Background()
	p1, total, err := client.Search(ctx, "  MUSIC ", 1, 5) // normalization
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 5 {
		t.Fatalf("page1 = %d", len(p1))
	}
	p2, _, err := client.Search(ctx, "music", 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) == 0 || p2[0].VideoIDString() == p1[0].VideoIDString() {
		t.Fatal("pagination broken")
	}
	if total < len(p1)+len(p2) {
		t.Fatalf("total %d smaller than pages seen", total)
	}
}

func TestSearchUnknownTermEmpty(t *testing.T) {
	_, client := testServer(t, DefaultServerConfig())
	entries, total, err := client.Search(context.Background(), "zzz-not-a-tag", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 || len(entries) != 0 {
		t.Fatalf("unknown term returned %d/%d", len(entries), total)
	}
}

func TestSearchMissingQuery(t *testing.T) {
	_, client := testServer(t, DefaultServerConfig())
	_, _, err := client.Search(context.Background(), "   ", 1, 5)
	var se *ErrStatus
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("blank query err = %v", err)
	}
	if se.Error() == "" {
		t.Fatal("empty error string")
	}
}
