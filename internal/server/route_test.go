package server

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"viewstags/internal/obs"
)

// wrongMethod is a verb the row's guard refuses.
func wrongMethod[D any](rt Route[D]) string {
	if rt.Method == http.MethodPost {
		return http.MethodGet
	}
	return http.MethodDelete
}

// TestRouteTablePolicy holds every row of the route table to its own
// columns, through the chain Mount builds: the method it takes, whether
// the limiter sheds it, the one metric group it moves, whether it is
// traced, and whether a stream frame may carry it. A row added to the
// table is covered here by being in the table.
func TestRouteTablePolicy(t *testing.T) {
	_, srv := fixture(t)
	table := Routes()
	logger := log.New(io.Discard, "", 0)
	serve := func(h http.Handler, method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	// The unmatched row rides along wherever the table is iterated with a
	// stub handler: a path no row matches is limited, metered as "other",
	// traced under the fixed label and takes any method.
	const unmatchedPath = "/v1/no-such-route"

	t.Run("method", func(t *testing.T) {
		for _, rt := range table {
			rec := serve(srv.Handler(), wrongMethod(rt), rt.Path)
			allow, msg := "POST", "use POST"
			if rt.Method == http.MethodGet {
				allow, msg = "GET, HEAD", "use GET"
			}
			wantEnvelope(t, rec, http.StatusMethodNotAllowed, msg)
			if got := rec.Header().Get("Allow"); got != allow {
				t.Errorf("%s %s: Allow %q, want %q", wrongMethod(rt), rt.Path, got, allow)
			}
			if rt.Method == http.MethodGet {
				if rec := serve(srv.Handler(), http.MethodHead, rt.Path); rec.Code == http.StatusMethodNotAllowed {
					t.Errorf("HEAD %s refused: a GET row admits HEAD", rt.Path)
				}
			}
		}
		if rec := serve(srv.Handler(), http.MethodDelete, unmatchedPath); rec.Code != http.StatusNotFound {
			t.Errorf("DELETE %s answered %d, want the mux's 404", unmatchedPath, rec.Code)
		}
	})

	t.Run("limiter", func(t *testing.T) {
		metrics := NewMetrics()
		hold, inside := make(chan struct{}), make(chan struct{})
		h := Mount(NewMiddleware(1, metrics, logger, false), nil, stubTable(func(w http.ResponseWriter, r *http.Request) {
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
		shed := 0
		for _, rt := range table {
			rec := serve(h, rt.Method, rt.Path)
			if rt.Policy&Unlimited != 0 {
				if rec.Code != http.StatusOK {
					t.Errorf("%s is Unlimited but answered %d under saturation", rt.Path, rec.Code)
				}
				continue
			}
			shed++
			wantEnvelope(t, rec, http.StatusServiceUnavailable, "server at capacity")
			if got := rec.Header().Get("Retry-After"); got != "1" {
				t.Errorf("%s shed with Retry-After %q, want 1", rt.Path, got)
			}
		}
		if rec := serve(h, http.MethodGet, unmatchedPath); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("unmatched path answered %d under saturation, want a shed", rec.Code)
		}
		if got := metrics.Rejected.Load(); got != int64(shed+1) {
			t.Errorf("rejected = %d, want %d", got, shed+1)
		}
	})

	t.Run("metrics and traces", func(t *testing.T) {
		metrics := NewMetrics()
		mw := NewMiddleware(4, metrics, logger, false)
		h := Mount(mw, nil, stubTable(func(http.ResponseWriter, *http.Request) {}))
		counts := func() (out [numGroups]int64) {
			for g, rm := range metrics.ptrs() {
				out[g] = rm.Requests.Load()
			}
			return out
		}
		check := func(method, path, route string, group Group, policy Policy) {
			store := obs.NewTraceStore(4)
			mw.SetTraceStore(store)
			before := counts()
			serve(h, method, path)
			want := before
			if policy&Unmetered == 0 {
				want[group]++
			}
			if got := counts(); got != want {
				t.Errorf("%s moved the group counters %v -> %v, want %v (group %s)", path, before, got, want, group)
			}
			views := store.Dump()
			if policy&Untraced != 0 {
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
		check(http.MethodGet, unmatchedPath, UnmatchedRoute, GroupOther, 0)
		check(http.MethodGet, "//v1/predict", UnmatchedRoute, GroupOther, 0) // the mux's 301
	})

	t.Run("stream", func(t *testing.T) {
		paths := []string{unmatchedPath, UnmatchedRoute}
		for _, rt := range table {
			paths = append(paths, rt.Path)
		}
		for i, path := range paths {
			frame, err := AppendStreamRequest(nil, &StreamRequest{ID: 7, Path: path, ContentType: jsonContentType})
			if err != nil {
				t.Fatal(err)
			}
			var env StreamRequest
			err = DecodeStreamRequest(frame[4:], &env)
			if i >= 2 && table[i-2].Policy&Streamable != 0 {
				if err != nil || env.Path != path {
					t.Errorf("%s is Streamable but its frame decoded to %+v, %v", path, env, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), "not a data-plane route") {
				t.Errorf("frame for %s: %v, want a refusal as not a data-plane route", path, err)
			}
		}
	})
}

// TestTraceRoutesAreTablePatterns: a trace's route is its row's pattern
// or the fixed unmatched label, never the raw path, so the trace store's
// per-route state cannot grow with what clients send. The ring retains
// the first traces of every new route key, so were raw paths the key it
// would be full of them.
func TestTraceRoutesAreTablePatterns(t *testing.T) {
	_, srv := fixture(t)
	labels := map[string]bool{UnmatchedRoute: true}
	for _, rt := range Routes() {
		labels[rt.Path] = true
	}
	for i := 0; i < 5000; i++ {
		path := fmt.Sprintf("//v1/x%d", i) // unclean: the mux answers 301
		if i%2 == 1 {
			path = fmt.Sprintf("/v1/x%d", i) // unknown: 404
		}
		srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}
	views := srv.Traces().Dump()
	if len(views) == 0 {
		t.Fatal("no trace retained")
	}
	for _, v := range views {
		if !labels[v.Route] {
			t.Fatalf("retained trace has route %q: not a table pattern or %q", v.Route, UnmatchedRoute)
		}
	}
	// The filter still selects by pattern, which for every real route is
	// its path.
	do(t, srv, http.MethodPost, "/v1/predict", PredictRequest{Tags: []string{"pop"}}, nil)
	var list TracesListResponse
	if code := do(t, srv, http.MethodGet, "/debug/traces?route=/v1/predict", nil, &list); code != http.StatusOK || list.Count == 0 {
		t.Fatalf("route filter: status %d, %d traces", code, list.Count)
	}
	for _, v := range list.Traces {
		if v.Route != "/v1/predict" {
			t.Fatalf("route=/v1/predict returned a trace of %q", v.Route)
		}
	}
}
