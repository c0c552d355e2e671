package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"viewstags/internal/ingest"
	"viewstags/internal/persist"
	"viewstags/internal/profilestore"
)

// bareServer builds an isolated server over the shared fixture's
// analysis (the package fixture server is shared and must not have its
// readiness or persist hooks mutated by these tests).
func bareServer(t *testing.T) *Server {
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
	return srv
}

// doRec is do() returning the full recorder (status + headers).
func doRec(t *testing.T, srv *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// TestReadyzSplitsFromHealthz pins the liveness/readiness split: a
// freshly constructed (still recovering) server is live on /healthz but
// 503 on /readyz; SetReady flips only the latter.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	srv := bareServer(t)
	if code := do(t, srv, http.MethodGet, "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("/healthz before ready: %d, want 200 (liveness must not wait for recovery)", code)
	}
	var ready struct {
		Status string `json:"status"`
	}
	if code := do(t, srv, http.MethodGet, "/readyz", nil, &ready); code != http.StatusServiceUnavailable || ready.Status != "starting" {
		t.Fatalf("/readyz before ready: %d %+v, want 503 starting", code, ready)
	}
	srv.SetReady()
	if code := do(t, srv, http.MethodGet, "/readyz", nil, &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("/readyz after SetReady: %d %+v, want 200 ready", code, ready)
	}
	if !srv.ready.Load() {
		t.Fatal("not ready after SetReady")
	}
}

// TestCheckpointRoute pins the admin route: 503 on in-memory
// deployments, the happy path + error + method gate once EnablePersist
// runs, and the persist blocks in /v1/stats and /healthz.
func TestCheckpointRoute(t *testing.T) {
	srv := bareServer(t)
	if code := do(t, srv, http.MethodPost, "/v1/checkpoint", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint without persistence: %d, want 503", code)
	}

	calls := 0
	err := srv.EnablePersist(
		func() persist.Stats {
			return persist.Stats{Dir: "/tmp/x", CheckpointGen: 4, Recovered: true, WALSegments: 2}
		},
		func() (CheckpointStatus, error) {
			calls++
			if calls > 1 {
				return CheckpointStatus{}, fmt.Errorf("boom")
			}
			return CheckpointStatus{Gen: 5, Epoch: 2}, nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}

	var status CheckpointStatus
	if code := do(t, srv, http.MethodPost, "/v1/checkpoint", struct{}{}, &status); code != http.StatusOK || status.Gen != 5 || status.Epoch != 2 {
		t.Fatalf("checkpoint: code=%d status=%+v, want 200 gen=5 epoch=2", code, status)
	}
	if code := do(t, srv, http.MethodPost, "/v1/checkpoint", nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("failing checkpoint: %d, want 500", code)
	}
	if code := do(t, srv, http.MethodGet, "/v1/checkpoint", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/checkpoint: %d, want 405", code)
	}

	var stats struct {
		Persist *persist.Stats `json:"persist"`
	}
	if code := do(t, srv, http.MethodGet, "/v1/stats", nil, &stats); code != http.StatusOK || stats.Persist == nil {
		t.Fatalf("/v1/stats persist block missing (code %d)", code)
	}
	if stats.Persist.CheckpointGen != 4 || !stats.Persist.Recovered {
		t.Fatalf("persist block mangled: %+v", stats.Persist)
	}
	var health struct {
		Persist map[string]any `json:"persist"`
	}
	if code := do(t, srv, http.MethodGet, "/healthz", nil, &health); code != http.StatusOK || health.Persist == nil {
		t.Fatalf("/healthz persist summary missing (code %d)", code)
	}
	if health.Persist["wal_segments"] != float64(2) {
		t.Fatalf("healthz persist summary mangled: %+v", health.Persist)
	}
}

// failingJournal always fails — the disk-full stand-in.
type failingJournal struct{}

func (failingJournal) Append(uint64, []ingest.Event, []string) error {
	return fmt.Errorf("no space left on device")
}

// TestIngestJournalFailureSheds pins the wire mapping of a journal
// failure: 503 + Retry-After (the client did nothing wrong and must not
// see a 400), with the batch rejected whole.
func TestIngestJournalFailureSheds(t *testing.T) {
	srv := bareServer(t)
	acc, err := ingest.NewAccumulator(srv.store, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	acc.SetJournal(failingJournal{})
	if err := srv.EnableIngest(acc, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	req := IngestRequest{Events: []IngestEvent{{Tags: []string{"zz"}, Country: "US", Views: 1}}}
	rec := doRec(t, srv, http.MethodPost, "/v1/ingest", req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("journal failure surfaced as %d (%s), want 503", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("journal-failure 503 missing Retry-After")
	}
	if acc.Stats().Pending != 0 {
		t.Fatalf("pending %d after rejected batch, want 0", acc.Stats().Pending)
	}
	// The meta route reports readiness for the gateway's health loop.
	var meta InternalMetaResponse
	if code := do(t, srv, http.MethodGet, "/internal/meta", nil, &meta); code != http.StatusOK || meta.Ready {
		t.Fatalf("meta before ready: code=%d ready=%v, want 200 false", code, meta.Ready)
	}
	srv.SetReady()
	if code := do(t, srv, http.MethodGet, "/internal/meta", nil, &meta); code != http.StatusOK || !meta.Ready {
		t.Fatalf("meta after ready: code=%d ready=%v, want 200 true", code, meta.Ready)
	}
}
