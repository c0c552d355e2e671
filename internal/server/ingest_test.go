package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/tagviews"
)

// jsonBody encodes v for a raw httptest request.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// freshServer builds a server over its own store (safe to fold/reload,
// unlike the shared fixture) plus an attached accumulator and a
// compactor at the given interval (folded manually via FoldNow unless
// Run is started). withCatalog wires the synthetic catalog for
// /v1/preload.
func freshServer(t *testing.T, withCatalog bool, buffer int, interval time.Duration) (*Server, *ingest.Accumulator, *ingest.Compactor) {
	t.Helper()
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
	if withCatalog {
		if err := srv.SetCatalog(res.Catalog.Served()); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := ingest.NewAccumulator(store, buffer)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableIngest(acc, interval); err != nil {
		t.Fatal(err)
	}
	comp, err := ingest.NewCompactor(acc, interval, func(d []profilestore.TagDelta, n int) error {
		return srv.ApplyDeltas(d, n, tagviews.WeightIDF)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv, acc, comp
}

// TestIngestEndToEnd is the streaming acceptance path: events posted to
// /v1/ingest are invisible until a fold, then /v1/predict serves them.
func TestIngestEndToEnd(t *testing.T) {
	srv, acc, comp := freshServer(t, false, 0, time.Hour)

	// The brand-new tag is unknown before any ingest.
	var pre PredictResponse
	if code := do(t, srv, http.MethodPost, "/v1/predict",
		PredictRequest{Tags: []string{"zz-live-tag"}}, &pre); code != http.StatusOK {
		t.Fatalf("pre-ingest predict: %d", code)
	}
	if pre.Result.Known {
		t.Fatal("tag known before ingest")
	}

	var resp IngestResponse
	code := do(t, srv, http.MethodPost, "/v1/ingest", IngestRequest{Events: []IngestEvent{
		{Video: "live-1", Tags: []string{"zz-live-tag"}, Country: "JP", Views: 900, Upload: true},
		{Video: "live-1", Tags: []string{"zz-live-tag"}, Country: "US", Views: 100},
	}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if resp.Accepted != 2 || resp.Epoch != 0 || resp.Pending != 2 {
		t.Fatalf("ingest ack %+v", resp)
	}

	// Accepted but not yet folded: still unknown.
	if do(t, srv, http.MethodPost, "/v1/predict",
		PredictRequest{Tags: []string{"zz-live-tag"}}, &pre); pre.Result.Known {
		t.Fatal("unfolded event already visible (snapshot mutated in place?)")
	}

	if folded, err := comp.FoldNow(); err != nil || !folded {
		t.Fatalf("fold: %v folded=%v", err, folded)
	}
	if acc.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", acc.Epoch())
	}

	var post PredictResponse
	if code := do(t, srv, http.MethodPost, "/v1/predict",
		PredictRequest{Tags: []string{"zz-live-tag"}, Top: 2}, &post); code != http.StatusOK {
		t.Fatalf("post-fold predict: %d", code)
	}
	if !post.Result.Known {
		t.Fatal("folded tag not known")
	}
	if top := post.Result.Top[0]; top.Country != "JP" || math.Abs(top.Share-0.9) > 1e-9 {
		t.Fatalf("folded prediction top %+v, want JP at 0.9", top)
	}

	// The fold epoch is on /healthz and the stream stats on /v1/stats.
	var health map[string]any
	do(t, srv, http.MethodGet, "/healthz", nil, &health)
	if health["epoch"] != float64(1) {
		t.Fatalf("healthz epoch %v, want 1", health["epoch"])
	}
	var stats statsPayload
	do(t, srv, http.MethodGet, "/v1/stats", nil, &stats)
	if stats.Events != 2 || stats.Ingest.Requests == 0 {
		t.Fatalf("ingest not metered: events=%d requests=%d", stats.Events, stats.Ingest.Requests)
	}
	if stats.Stream == nil || stats.Stream.Epoch != 1 || stats.Stream.Events != 2 {
		t.Fatalf("stream stats %+v", stats.Stream)
	}
}

func TestIngestErrors(t *testing.T) {
	srv, _, _ := freshServer(t, false, 0, time.Hour)
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"no events", IngestRequest{}, http.StatusBadRequest},
		{"no tags", IngestRequest{Events: []IngestEvent{{Country: "US", Views: 1}}}, http.StatusBadRequest},
		{"unknown country", IngestRequest{Events: []IngestEvent{{Tags: []string{"t"}, Country: "ZZ", Views: 1}}}, http.StatusBadRequest},
		{"negative views", IngestRequest{Events: []IngestEvent{{Tags: []string{"t"}, Country: "US", Views: -4}}}, http.StatusBadRequest},
		{"upload without video", IngestRequest{Events: []IngestEvent{{Tags: []string{"t"}, Country: "US", Views: 1, Upload: true}}}, http.StatusBadRequest},
		{"empty tag string", IngestRequest{Events: []IngestEvent{{Tags: []string{""}, Country: "US", Views: 1}}}, http.StatusBadRequest},
		{"tag cap", IngestRequest{Events: []IngestEvent{{Tags: make([]string, ingest.MaxEventTags+1), Country: "US", Views: 1}}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"eventz": []any{}}, http.StatusBadRequest},
		{"trailing garbage", rawBody(`{"events":[{"tags":["t"],"country":"US","views":1}]}x`), http.StatusBadRequest},
		{"second value", rawBody(`{"events":[{"tags":["t"],"country":"US","views":1}]} {}`), http.StatusBadRequest},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := do(t, srv, http.MethodPost, "/v1/ingest", c.req, &e); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		} else if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
	if code := do(t, srv, http.MethodGet, "/v1/ingest", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest: %d, want 405", code)
	}
	// Oversized batch.
	big := IngestRequest{Events: make([]IngestEvent, DefaultConfig().MaxBatch+1)}
	for i := range big.Events {
		big.Events[i] = IngestEvent{Tags: []string{"t"}, Country: "US", Views: 1}
	}
	if code := do(t, srv, http.MethodPost, "/v1/ingest", big, nil); code != http.StatusBadRequest {
		t.Errorf("oversized batch: %d, want 400", code)
	}
}

func TestIngestDisabled(t *testing.T) {
	res, _ := fixture(t)
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := New(DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	if code := do(t, bare, http.MethodPost, "/v1/ingest", IngestRequest{Events: []IngestEvent{
		{Tags: []string{"t"}, Country: "US", Views: 1},
	}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest on read-only server: %d, want 503", code)
	}
}

func TestIngestBackpressure503(t *testing.T) {
	srv, _, comp := freshServer(t, false, 3, time.Hour)
	fill := IngestRequest{Events: []IngestEvent{
		{Tags: []string{"a"}, Country: "US", Views: 1},
		{Tags: []string{"b"}, Country: "US", Views: 1},
		{Tags: []string{"c"}, Country: "US", Views: 1},
	}}
	if code := do(t, srv, http.MethodPost, "/v1/ingest", fill, nil); code != http.StatusOK {
		t.Fatalf("fill: %d", code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", jsonBody(t, IngestRequest{Events: []IngestEvent{
		{Tags: []string{"d"}, Country: "US", Views: 1},
	}}))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// A fold clears the buffer and ingest resumes.
	if _, err := comp.FoldNow(); err != nil {
		t.Fatal(err)
	}
	if code := do(t, srv, http.MethodPost, "/v1/ingest", IngestRequest{Events: []IngestEvent{
		{Tags: []string{"d"}, Country: "US", Views: 1},
	}}, nil); code != http.StatusOK {
		t.Fatalf("post-fold ingest: %d", code)
	}
}

// TestFoldRefreshesPreloadAdvisories: once an ingest fold has installed
// its snapshot, /v1/preload ranks by it, exactly as after a batch reload
// — there is one install path and no per-install advisory state to
// forget.
func TestFoldRefreshesPreloadAdvisories(t *testing.T) {
	srv, _, comp := freshServer(t, true, 0, time.Hour)
	res, _ := fixture(t)
	base := srv.store.Load()
	var events []IngestEvent
	for _, p := range base.TopProfiles(20) {
		events = append(events, IngestEvent{Tags: []string{p.Name}, Country: "BR", Views: 50 * p.TotalViews})
	}
	if code := do(t, srv, http.MethodPost, "/v1/ingest", IngestRequest{Events: events}, nil); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	if folded, err := comp.FoldNow(); err != nil || !folded {
		t.Fatalf("fold: %v", err)
	}
	got := preloadIDs(t, srv, "BR", "tag-push", "", 32)
	if want := wantTagPush(res, srv.store.Load(), tagviews.WeightIDF, "BR", 32); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-fold advisory = %v, want the folded snapshot's ranking %v", got, want)
	}
	if stale := wantTagPush(res, base, tagviews.WeightIDF, "BR", 32); reflect.DeepEqual(got, stale) {
		t.Fatal("the fold left BR's ranking where it was: a stale ranking would pass")
	}
}

// TestIngestWhilePredictSoak is the concurrency acceptance test: writer
// goroutines hammer /v1/ingest and readers hammer /v1/predict while the
// compactor folds every few milliseconds across several epochs. Run
// under -race this checks the full stack for data races; the assertions
// check every prediction is served from a coherent snapshot (well-formed
// 200, shares forming a sane distribution) at every epoch.
func TestIngestWhilePredictSoak(t *testing.T) {
	srv, acc, comp := freshServer(t, false, 1<<20, 2*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go comp.Run(ctx)

	const readers, writers = 4, 2
	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				code := do(t, srv, http.MethodPost, "/v1/ingest", IngestRequest{Events: []IngestEvent{
					{Video: "soak", Tags: []string{"zz-soak", "pop"}, Country: "BR", Views: 1, Upload: i == 0},
				}}, nil)
				if code != http.StatusOK && code != http.StatusServiceUnavailable {
					t.Errorf("writer %d: status %d", wkr, code)
					return
				}
			}
		}(wkr)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var resp PredictResponse
				code := do(t, srv, http.MethodPost, "/v1/predict",
					PredictRequest{Tags: []string{"pop", "zz-soak"}, Top: 5}, &resp)
				if code != http.StatusOK || resp.Result == nil || !resp.Result.Known {
					t.Errorf("reader %d: incoherent response code=%d resp=%+v", r, code, resp)
					return
				}
				var sum float64
				last := math.Inf(1)
				for _, cs := range resp.Result.Top {
					if cs.Share < 0 || cs.Share > 1+1e-9 || cs.Share > last+1e-12 {
						t.Errorf("reader %d: malformed shares %+v", r, resp.Result.Top)
						return
					}
					last = cs.Share
					sum += cs.Share
				}
				if sum > 1+1e-9 {
					t.Errorf("reader %d: top shares sum to %v", r, sum)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	cancel()

	// The soak must have crossed several epochs to mean anything.
	if acc.Epoch() < 3 {
		t.Fatalf("only %d fold epochs during soak", acc.Epoch())
	}
	// Post-soak: the ingested tag is served and its mass is on BR.
	if _, err := comp.FoldNow(); err != nil {
		t.Fatal(err)
	}
	var resp PredictResponse
	if code := do(t, srv, http.MethodPost, "/v1/predict",
		PredictRequest{Tags: []string{"zz-soak"}, Top: 1}, &resp); code != http.StatusOK {
		t.Fatalf("post-soak predict: %d", code)
	}
	if !resp.Result.Known || resp.Result.Top[0].Country != "BR" {
		t.Fatalf("post-soak prediction %+v, want BR", resp.Result)
	}
}

// TestIngestRefusesOverflowingViews is ROADMAP item 3(xi): two finite
// events of 1e308 views for one tag overflowed its per-country sum to
// +Inf, the fold normalized it to NaN, and every predict naming the tag
// answered 500. Validate refuses views that are not finite or are above
// MaxEventViews with a 400 naming the event — on /v1/ingest and on the
// binary leg, where a NaN can arrive too — and the tag's answer does not
// move.
func TestIngestRefusesOverflowingViews(t *testing.T) {
	srv, _, comp := freshServer(t, false, 0, time.Hour)
	predict := PredictRequest{Tags: []string{"favela"}, Top: 3}
	var before, after PredictResponse
	if code := do(t, srv, http.MethodPost, "/v1/predict", predict, &before); code != http.StatusOK {
		t.Fatalf("predict: %d", code)
	}
	var refusal struct {
		Error string `json:"error"`
	}
	huge := IngestEvent{Tags: []string{"favela"}, Country: "US", Views: 1e308}
	if code := do(t, srv, http.MethodPost, "/v1/ingest", IngestRequest{Events: []IngestEvent{huge, huge}}, &refusal); code != http.StatusBadRequest ||
		refusal.Error != "ingest: event 0 has views 1e+308, want at most 1e+12" {
		t.Fatalf("two 1e308 events: %d %q, want a 400 naming event 0", code, refusal.Error)
	}
	for _, views := range []float64{math.NaN(), math.Inf(1), 2 * ingest.MaxEventViews} {
		e := ingest.Event{Tags: []string{"favela"}, Country: country(t, srv, "US"), Views: views}
		if rec := postInternalIngest(srv, ingestBody([]ingest.Event{e})); rec.Code != http.StatusBadRequest {
			t.Fatalf("binary event of %v views: %d, want 400", views, rec.Code)
		}
	}
	if _, err := comp.FoldNow(); err != nil {
		t.Fatal(err)
	}
	if code := do(t, srv, http.MethodPost, "/v1/predict", predict, &after); code != http.StatusOK || !reflect.DeepEqual(after, before) {
		t.Fatalf("predict after the refused events: %d %+v, was %+v", code, after.Result, before.Result)
	}
}
