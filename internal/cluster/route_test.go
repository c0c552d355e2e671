package cluster

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"viewstags/internal/obs"
	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// TestRouteTablePolicy holds every row of the gateway's route table to
// its own columns, as the test of the same name in internal/server does
// for a node's: method, limiter, the one metric group it moves, tracing,
// and stream reachability — no gateway route may ride a frame, and every
// path the gateway's legs name must.
func TestRouteTablePolicy(t *testing.T) {
	_, g := startCluster(t, 3)
	table := GatewayRoutes()
	logger := log.New(io.Discard, "", 0)
	serve := func(h http.Handler, method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	wantEnvelope := func(rec *httptest.ResponseRecorder, path string, status int, msg string) {
		t.Helper()
		var e struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		if id := rec.Header().Get(obs.TraceHeader); rec.Code != status || e.Error != msg || id == "" || e.RequestID != id {
			t.Errorf("%s answered %d %q (X-Request-Id %q); want %d with the envelope %q echoing the id", path, rec.Code, rec.Body.Bytes(), id, status, msg)
		}
	}
	stub := func(h http.HandlerFunc) []server.Route[*Gateway] {
		out := GatewayRoutes()
		for i := range out {
			out[i].Handler = func(_ *Gateway, w http.ResponseWriter, r *http.Request) { h(w, r) }
		}
		return out
	}
	const unmatchedPath = "/v1/place" // a node's route, not the gateway's

	t.Run("method", func(t *testing.T) {
		for _, rt := range table {
			wrong, allow, msg := http.MethodGet, "POST", "use POST"
			if rt.Method == http.MethodGet {
				wrong, allow, msg = http.MethodDelete, "GET, HEAD", "use GET"
				if rec := serve(g.Handler(), http.MethodHead, rt.Path); rec.Code == http.StatusMethodNotAllowed {
					t.Errorf("HEAD %s refused: a GET row admits HEAD", rt.Path)
				}
			}
			rec := serve(g.Handler(), wrong, rt.Path)
			wantEnvelope(rec, rt.Path, http.StatusMethodNotAllowed, msg)
			if got := rec.Header().Get("Allow"); got != allow {
				t.Errorf("%s %s: Allow %q, want %q", wrong, rt.Path, got, allow)
			}
		}
	})

	t.Run("limiter", func(t *testing.T) {
		hold, inside := make(chan struct{}), make(chan struct{})
		h := server.Mount(server.NewMiddleware(1, server.NewMetrics(), logger, false), nil, stub(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("X-Hold") != "" {
				close(inside)
				<-hold
			}
		}))
		go func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
			req.Header.Set("X-Hold", "1")
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
		<-inside
		defer close(hold)
		for _, rt := range table {
			rec := serve(h, rt.Method, rt.Path)
			if rt.Policy&server.Unlimited != 0 {
				if rec.Code != http.StatusOK {
					t.Errorf("%s is Unlimited but answered %d under saturation", rt.Path, rec.Code)
				}
				continue
			}
			wantEnvelope(rec, rt.Path, http.StatusServiceUnavailable, "server at capacity")
			if got := rec.Header().Get("Retry-After"); got != "1" {
				t.Errorf("%s shed with Retry-After %q, want 1", rt.Path, got)
			}
		}
		if rec := serve(h, http.MethodPost, unmatchedPath); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("unmatched path answered %d under saturation, want a shed", rec.Code)
		}
	})

	t.Run("metrics and traces", func(t *testing.T) {
		metrics := server.NewMetrics()
		mw := server.NewMiddleware(4, metrics, logger, false)
		h := server.Mount(mw, nil, stub(func(http.ResponseWriter, *http.Request) {}))
		counts := func() map[string]int64 {
			s := metrics.Snapshot()
			return map[string]int64{
				server.GroupPredict.String(): s.Predict.Requests, server.GroupIngest.String(): s.Ingest.Requests,
				server.GroupPlace.String(): s.Place.Requests, server.GroupPreload.String(): s.Preload.Requests,
				server.GroupInternal.String(): s.Internal.Requests, server.GroupOther.String(): s.Other.Requests,
			}
		}
		check := func(method, path, route string, group server.Group, policy server.Policy) {
			store := obs.NewTraceStore(4)
			mw.SetTraceStore(store)
			before := counts()
			serve(h, method, path)
			for name, n := range counts() {
				want := before[name]
				if name == group.String() && policy&server.Unmetered == 0 {
					want++
				}
				if n != want {
					t.Errorf("%s moved group %s %d -> %d, want %d (its group is %s)", path, name, before[name], n, want, group)
				}
			}
			views := store.Dump()
			if policy&server.Untraced != 0 {
				if len(views) != 0 {
					t.Errorf("%s is Untraced but left %d traces", path, len(views))
				}
			} else if len(views) != 1 || views[0].Route != route {
				t.Errorf("%s left traces %+v, want one with route %q", path, views, route)
			}
		}
		for _, rt := range table {
			check(rt.Method, rt.Path, rt.Path, rt.Group, rt.Policy)
		}
		check(http.MethodPost, unmatchedPath, server.UnmatchedRoute, server.GroupOther, 0)
	})

	t.Run("stream", func(t *testing.T) {
		decode := func(path string) error {
			frame, err := server.AppendStreamRequest(nil, &server.StreamRequest{ID: 7, Path: path})
			if err != nil {
				t.Fatal(err)
			}
			var env server.StreamRequest
			return server.DecodeStreamRequest(frame[4:], &env)
		}
		for _, rt := range table {
			if rt.Policy&server.Streamable != 0 {
				t.Errorf("%s is Streamable: the gateway accepts no stream", rt.Path)
			}
			if err := decode(rt.Path); err == nil || !strings.Contains(err.Error(), "not a data-plane route") {
				t.Errorf("frame for %s: %v, want a refusal as not a data-plane route", rt.Path, err)
			}
		}
		for leg, path := range legRoutePaths {
			if err := decode(path); err != nil {
				t.Errorf("%s leg path %s is not reachable as a frame: %v", legRouteNames[leg], path, err)
			}
		}
	})
}

// TestGatewayTagsHugeK: the gateway sizes nothing by the client's k. A k
// far past any vocabulary answers what a single node answers for it —
// every tag — where sizing the merge buffer by k × shards ended the
// process (out of memory at 2e9, an overflowed multiply above that).
func TestGatewayTagsHugeK(t *testing.T) {
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := startNode(t, ringOne, 0, 1)
	_, g := startCluster(t, 3)
	gw := gatewayServer(t, g)
	for _, k := range []string{"2000000000", "9223372036854775807"} {
		var want, got struct {
			Tags []server.TagInfo `json:"tags"`
		}
		if code := get(t, full.ts.URL+"/v1/tags?k="+k, &want); code != http.StatusOK {
			t.Fatalf("k=%s on a single node: %d", k, code)
		}
		if code := get(t, gw.URL+"/v1/tags?k="+k, &got); code != http.StatusOK {
			t.Fatalf("k=%s on the gateway: %d", k, code)
		}
		if len(want.Tags) != full.store.Load().NumTags() || len(got.Tags) != len(want.Tags) {
			t.Fatalf("k=%s: gateway %d tags, single node %d, vocabulary %d", k, len(got.Tags), len(want.Tags), full.store.Load().NumTags())
		}
		for i := range want.Tags {
			if got.Tags[i].Name != want.Tags[i].Name || got.Tags[i].TotalViews != want.Tags[i].TotalViews {
				t.Fatalf("k=%s rank %d: gateway %s (%v), single %s (%v)", k, i,
					got.Tags[i].Name, got.Tags[i].TotalViews, want.Tags[i].Name, want.Tags[i].TotalViews)
			}
		}
	}
}
