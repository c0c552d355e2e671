package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/geocache"
	"viewstags/internal/obs"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/tagviews"
)

var (
	fixOnce sync.Once
	fixRes  *pipeline.Result
	fixSrv  *Server
	fixErr  error
)

// fixture builds one shared pipeline + fully wired server (catalog
// installed) for every test.
func fixture(t *testing.T) (*pipeline.Result, *Server) {
	t.Helper()
	fixOnce.Do(func() {
		fixRes, fixErr = pipeline.FromSynthetic(3000, 20110301, alexa.DefaultConfig())
		if fixErr != nil {
			return
		}
		snap, err := profilestore.Build(fixRes.Analysis)
		if err != nil {
			fixErr = err
			return
		}
		store, err := profilestore.NewStore(snap)
		if err != nil {
			fixErr = err
			return
		}
		fixSrv, fixErr = New(DefaultConfig(), store)
		if fixErr != nil {
			return
		}
		fixErr = fixSrv.SetCatalog(fixRes.Catalog.Served(), tagviews.WeightIDF)
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixRes, fixSrv
}

// rawBody is a request body do sends as written instead of marshalling
// it: the malformed bodies no Go value encodes to.
type rawBody string

// do round-trips one JSON request through the full middleware-wrapped
// handler and decodes the response into out.
func do(t *testing.T, srv *Server, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if raw, ok := body.(rawBody); ok {
		buf.WriteString(string(raw))
	} else if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestPredictSingle(t *testing.T) {
	res, srv := fixture(t)
	var resp PredictResponse
	code := do(t, srv, http.MethodPost, "/v1/predict",
		PredictRequest{Tags: []string{"favela", "samba"}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Weighting != "idf" {
		t.Fatalf("default weighting %q, want idf", resp.Weighting)
	}
	if resp.Result == nil || !resp.Result.Known {
		t.Fatalf("favela prediction not known: %+v", resp)
	}
	if resp.Result.Top[0].Country != "BR" {
		t.Fatalf("favela peaks at %s, want BR", resp.Result.Top[0].Country)
	}
	// The wire result must agree with the offline predictor.
	ref, err := tagviews.NewPredictor(res.Analysis, tagviews.WeightIDF)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Predict([]string{"favela", "samba"})
	br := res.World.MustByCode("BR")
	if diff := resp.Result.Top[0].Share - want[br]; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("BR share %v, offline predictor says %v", resp.Result.Top[0].Share, want[br])
	}
}

func TestPredictAllWeightings(t *testing.T) {
	_, srv := fixture(t)
	for _, w := range []string{"uniform", "by-views", "idf"} {
		var resp PredictResponse
		code := do(t, srv, http.MethodPost, "/v1/predict",
			PredictRequest{Tags: []string{"pop", "music"}, Weighting: w}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", w, code)
		}
		if resp.Weighting != w {
			t.Fatalf("weighting echoed %q, want %q", resp.Weighting, w)
		}
	}
}

func TestPredictBatch(t *testing.T) {
	_, srv := fixture(t)
	var resp PredictResponse
	code := do(t, srv, http.MethodPost, "/v1/predict", PredictRequest{
		Batch: []PredictItem{
			{Tags: []string{"favela"}},
			{Tags: []string{"pop"}},
			{Tags: []string{"zz-unknown-tag"}},
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if !resp.Results[0].Known || !resp.Results[1].Known {
		t.Fatal("known tags reported unknown")
	}
	if resp.Results[2].Known {
		t.Fatal("unknown tag reported known")
	}
	if len(resp.Results[2].Top) == 0 {
		t.Fatal("fallback prediction empty")
	}
}

func TestPredictErrors(t *testing.T) {
	_, srv := fixture(t)
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"empty request", PredictRequest{}, http.StatusBadRequest},
		{"empty batch item", PredictRequest{Batch: []PredictItem{{}}}, http.StatusBadRequest},
		{"invalid weighting", PredictRequest{Tags: []string{"pop"}, Weighting: "bogus"}, http.StatusBadRequest},
		{"tags and batch", PredictRequest{Tags: []string{"pop"}, Batch: []PredictItem{{Tags: []string{"pop"}}}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"tagz": []string{"pop"}}, http.StatusBadRequest},
		{"trailing garbage", rawBody(`{"tags":["pop"]}garbage`), http.StatusBadRequest},
		{"second value", rawBody(`{"tags":["pop"]}{"tags":["pop"]}`), http.StatusBadRequest},
		{"trailing brace after an escaped body", rawBody(`{"tags":["p\u006fp"]} }`), http.StatusBadRequest},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := do(t, srv, http.MethodPost, "/v1/predict", c.req, &e); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		} else if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
	if code := do(t, srv, http.MethodGet, "/v1/predict", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d, want 405", code)
	}
	// Unknown single tags are not an HTTP error: the service answers
	// with the prior and says so.
	var resp PredictResponse
	if code := do(t, srv, http.MethodPost, "/v1/predict",
		PredictRequest{Tags: []string{"zz-unknown-tag"}}, &resp); code != http.StatusOK {
		t.Fatalf("unknown tag: status %d, want 200", code)
	}
	if resp.Result.Known {
		t.Fatal("unknown tag reported known")
	}
}

func TestPlace(t *testing.T) {
	_, srv := fixture(t)
	var resp PlaceResponse
	code := do(t, srv, http.MethodPost, "/v1/place",
		PlaceRequest{Tags: []string{"favela"}, Upload: "US", Strategy: "predicted", Replicas: 3}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Replicas) != 3 {
		t.Fatalf("%d replicas, want 3", len(resp.Replicas))
	}
	if resp.Replicas[0] != "BR" {
		t.Fatalf("favela's first replica %s, want BR (demand-led, not upload-led)", resp.Replicas[0])
	}
	// Home strategy ignores tags and leads with the upload country.
	code = do(t, srv, http.MethodPost, "/v1/place",
		PlaceRequest{Upload: "DE", Strategy: "home", Replicas: 2}, &resp)
	if code != http.StatusOK {
		t.Fatalf("home: status %d", code)
	}
	if resp.Replicas[0] != "DE" {
		t.Fatalf("home strategy leads with %s, want DE", resp.Replicas[0])
	}
	if resp.Known {
		t.Fatal("tagless place reported tag demand")
	}
}

// TestPlaceUnknownTagsFallsBackHome pins the fallback semantics: when
// no tag is known there is no demand signal, so StrategyPredicted must
// behave like the offline Evaluator's unpredicted-video path (home +
// nearest), not place by the traffic prior.
func TestPlaceUnknownTagsFallsBackHome(t *testing.T) {
	_, srv := fixture(t)
	var resp PlaceResponse
	code := do(t, srv, http.MethodPost, "/v1/place",
		PlaceRequest{Tags: []string{"zz-unknown-tag"}, Upload: "NZ", Strategy: "predicted", Replicas: 2}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Known {
		t.Fatal("unknown tags reported as demand-informed")
	}
	if resp.Replicas[0] != "NZ" {
		t.Fatalf("unknown-tag placement leads with %s, want home NZ", resp.Replicas[0])
	}
}

func TestPlaceErrors(t *testing.T) {
	_, srv := fixture(t)
	cases := []struct {
		name string
		req  PlaceRequest
	}{
		{"unknown country", PlaceRequest{Upload: "ZZ"}},
		{"unknown strategy", PlaceRequest{Upload: "US", Strategy: "teleport"}},
		{"oracle online", PlaceRequest{Upload: "US", Strategy: "oracle"}},
		{"replicas out of range", PlaceRequest{Upload: "US", Replicas: -2}},
		{"invalid weighting", PlaceRequest{Upload: "US", Tags: []string{"pop"}, Weighting: "bogus"}},
	}
	for _, c := range cases {
		if code := do(t, srv, http.MethodPost, "/v1/place", c.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
	}
	// Trailing data is refused in the general decoder, so on every route.
	var e struct {
		Error string `json:"error"`
	}
	if code := do(t, srv, http.MethodPost, "/v1/place", rawBody(`{"upload":"US"} {"upload":"BR"}`), &e); code != http.StatusBadRequest ||
		e.Error != "invalid request body: unexpected data after the JSON value" {
		t.Errorf("second value: status %d %q, want the trailing-data 400", code, e.Error)
	}
	if code := do(t, srv, http.MethodPost, "/v1/place", rawBody("{\"upload\":\"US\"} \n\t"), nil); code != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, want 200", code)
	}
}

// wantEnvelope checks a non-2xx answer is the documented error envelope:
// JSON, the message, and the request id the response headers carry.
// stubTable is the daemon's route table with every handler replaced by
// h: the real policy columns around a handler the test controls.
func stubTable(h http.HandlerFunc) []Route[*Server] {
	table := Routes()
	for i := range table {
		table[i].Handler = func(_ *Server, w http.ResponseWriter, r *http.Request) { h(w, r) }
	}
	return table
}

func wantEnvelope(t *testing.T, rec *httptest.ResponseRecorder, status int, msg string) {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", rec.Body.Bytes(), err)
	}
	id := rec.Header().Get("X-Request-Id")
	if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" || e.Error != msg || id == "" || e.RequestID != id {
		t.Fatalf("answered %d (%s) %+v with X-Request-Id %q; want %d application/json %q echoing the id",
			rec.Code, rec.Header().Get("Content-Type"), e, id, status, msg)
	}
}

func TestPreload(t *testing.T) {
	res, srv := fixture(t)
	var resp PreloadResponse
	code := do(t, srv, http.MethodPost, "/v1/preload",
		PreloadRequest{Country: "BR", Policy: "tag-push", Slots: 16}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Videos) == 0 || len(resp.Videos) > 16 {
		t.Fatalf("%d advisory videos, want 1..16", len(resp.Videos))
	}
	// The advisory must be exactly what the simulator would push: the
	// table path over the offline predictor's fields.
	pred, err := tagviews.NewPredictor(res.Analysis, tagviews.WeightIDF)
	if err != nil {
		t.Fatal(err)
	}
	cat := res.Catalog
	predicted := make([][]float64, len(cat.Videos))
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			if p, ok := pred.Predict(names); ok {
				predicted[i] = p
			}
		}
	}
	br := res.World.MustByCode("BR")
	if want := tableAdvisory(cat, predicted, geocache.PolicyTagPush, br, 16); !reflect.DeepEqual(resp.Videos, want) {
		t.Fatalf("advisory = %v, want %v", resp.Videos, want)
	}
	// Pop-push also serves.
	if code := do(t, srv, http.MethodPost, "/v1/preload",
		PreloadRequest{Country: "US", Policy: "pop-push", Slots: 4}, &resp); code != http.StatusOK {
		t.Fatalf("pop-push: status %d", code)
	}
}

func TestPreloadErrors(t *testing.T) {
	_, srv := fixture(t)
	cases := []struct {
		name string
		req  PreloadRequest
		want int
	}{
		{"unknown country", PreloadRequest{Country: "ZZ"}, http.StatusBadRequest},
		{"unknown policy", PreloadRequest{Country: "US", Policy: "telepathy"}, http.StatusBadRequest},
		{"reactive policy", PreloadRequest{Country: "US", Policy: "lru"}, http.StatusBadRequest},
		{"oracle online", PreloadRequest{Country: "US", Policy: "oracle-push"}, http.StatusBadRequest},
		{"negative slots", PreloadRequest{Country: "US", Slots: -1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := do(t, srv, http.MethodPost, "/v1/preload", c.req, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
	// The oracle's refusal says where it still runs.
	var e struct {
		Error string `json:"error"`
	}
	do(t, srv, http.MethodPost, "/v1/preload", PreloadRequest{Country: "US", Policy: "oracle-push"}, &e)
	if !strings.Contains(e.Error, "ground-truth") || !strings.Contains(e.Error, "cmd/cachesim") {
		t.Errorf("oracle-push refused with %q, want the reason and the offline tool", e.Error)
	}
}

func TestPreloadWithoutCatalog(t *testing.T) {
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
	if code := do(t, bare, http.MethodPost, "/v1/preload",
		PreloadRequest{Country: "US"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("catalog-less preload: status %d, want 503", code)
	}
}

func TestTagsAndHealthAndStats(t *testing.T) {
	_, srv := fixture(t)
	var tags struct {
		Tags []TagInfo `json:"tags"`
	}
	if code := do(t, srv, http.MethodGet, "/v1/tags?k=10", nil, &tags); code != http.StatusOK {
		t.Fatalf("tags: status %d", code)
	}
	if len(tags.Tags) != 10 {
		t.Fatalf("%d tags, want 10", len(tags.Tags))
	}
	for i := 1; i < len(tags.Tags); i++ {
		if tags.Tags[i].TotalViews > tags.Tags[i-1].TotalViews {
			t.Fatal("tags not descending by views")
		}
	}
	if code := do(t, srv, http.MethodGet, "/v1/tags?k=bogus", nil, nil); code != http.StatusBadRequest {
		t.Fatal("bad k accepted")
	}

	var health map[string]any
	if code := do(t, srv, http.MethodGet, "/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}

	var stats Snapshot
	if code := do(t, srv, http.MethodGet, "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Predict.Requests == 0 || stats.Predictions == 0 {
		t.Fatalf("metrics not counting: %+v", stats)
	}
}

// TestConcurrencyLimit saturates a 1-slot server with a handler that
// blocks, and checks the limiter sheds the overflow with 503.
func TestConcurrencyLimit(t *testing.T) {
	res, _ := fixture(t)
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	small, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	inside := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		close(inside)
		<-hold
	})
	h := Mount(small.mw, small, stubTable(blocked))
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-inside
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow request got %d, want 503", rec.Code)
	}
	wantEnvelope(t, rec, http.StatusServiceUnavailable, "server at capacity")
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("shed carries Retry-After %q, want 1", rec.Header().Get("Retry-After"))
	}
	// Liveness must bypass the limiter: a saturated server still
	// answers its health checker.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	close(hold)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz under saturation got %d, want 200", rec.Code)
	}
	if small.Metrics().Rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestRecoveryMiddleware turns a handler panic into a 500 that carries
// the error envelope — through the stack both daemons wrap their handlers
// in (the gateway builds its own from NewMiddleware).
func TestRecoveryMiddleware(t *testing.T) {
	mw := NewMiddleware(4, NewMetrics(), log.New(io.Discard, "", 0), false)
	h := Mount(mw, nil, stubTable(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	req.Header.Set("X-Request-Id", "recovery-test-1")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic produced %d, want 500", rec.Code)
	}
	wantEnvelope(t, rec, http.StatusInternalServerError, "internal error")
	if rec.Header().Get("X-Request-Id") != "recovery-test-1" {
		t.Fatalf("inbound request id not echoed: %q", rec.Header().Get("X-Request-Id"))
	}
}

// requestIDCases are the bounds of an honoured X-Request-Id: up to
// obs.MaxRequestIDLen bytes of [0-9A-Za-z-_.:]. Anything else — one byte
// longer, or the comma that once joined several requests' ids — is
// replaced by a generated id, never truncated or passed on.
var requestIDCases = []struct {
	name, id string
	honoured bool
}{
	{"longest honoured id", strings.Repeat("x", obs.MaxRequestIDLen), true},
	{"one byte too long", strings.Repeat("x", obs.MaxRequestIDLen+1), false},
	{"comma", "aaa,bbb", false},
}

// wantRequestID checks got against one requestIDCases row: the inbound id
// itself when honoured, a freshly generated one otherwise.
func wantRequestID(t *testing.T, name, inbound, got string, honoured bool) {
	t.Helper()
	if honoured && got != inbound {
		t.Errorf("%s: id came back as %q, want it echoed whole", name, got)
	}
	if !honoured && (got == inbound || len(got) != 16 || !obs.ValidRequestID(got)) {
		t.Errorf("%s: id came back as %q, want a generated one", name, got)
	}
}

// TestRequestIDBound: the node's middleware honours or replaces an
// inbound id by the rule above, in the response header and the error
// envelope alike.
func TestRequestIDBound(t *testing.T) {
	_, srv := fixture(t)
	for _, tc := range requestIDCases {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"tags":[]}`))
		req.Header.Set(obs.TraceHeader, tc.id)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		wantEnvelope(t, rec, http.StatusBadRequest, "empty request: provide tags or batch")
		wantRequestID(t, tc.name, tc.id, rec.Header().Get(obs.TraceHeader), tc.honoured)
	}
}

// TestGracefulShutdown runs the real listener and checks Run returns
// cleanly on context cancel.
func TestGracefulShutdown(t *testing.T) {
	_, srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		bytes.NewBufferString(`{"tags":["pop"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live server predict: %d", resp.StatusCode)
	}
}

// reload installs a freshly built snapshot under the install lock; w is
// the weighting /v1/preload ranks tag-push by from here on.
func (s *Server) reload(snap *profilestore.Snapshot, w tagviews.Weighting) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(snap, w)
}

// TestReloadRefreshesPredictions pins the hot-reload contract: once
// reload returns, /v1/preload ranks by the snapshot it installed and the
// weighting it named, not by the one before.
func TestReloadRefreshesPredictions(t *testing.T) {
	srv, _, _ := freshServer(t, true, 0, time.Hour)
	res, _ := fixture(t)
	base := srv.store.Load()
	next := shifted(t, base, res.World.MustByCode("BR"))
	if err := srv.reload(next, tagviews.WeightByViews); err != nil {
		t.Fatal(err)
	}
	got := preloadIDs(t, srv, "BR", "tag-push", 32)
	if want := wantTagPush(res, next, tagviews.WeightByViews, "BR", 32); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reload advisory = %v, want the new snapshot's by-views ranking %v", got, want)
	}
	if stale := wantTagPush(res, base, tagviews.WeightIDF, "BR", 32); reflect.DeepEqual(got, stale) {
		t.Fatal("the reloaded snapshot ranks BR as the old one did: a stale ranking would pass")
	}
}

// TestHotReloadUnderTraffic swaps a fresh snapshot while requests are
// in flight; every response must be well-formed throughout.
func TestHotReloadUnderTraffic(t *testing.T) {
	res, srv := fixture(t)
	next, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var resp PredictResponse
				code := do(t, srv, http.MethodPost, "/v1/predict",
					PredictRequest{Tags: []string{"favela", "pop"}}, &resp)
				if code != http.StatusOK || resp.Result == nil || !resp.Result.Known {
					t.Errorf("mid-reload predict failed: code=%d resp=%+v", code, resp)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if _, err := srv.store.Swap(next); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
