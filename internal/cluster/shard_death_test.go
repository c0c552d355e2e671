package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"viewstags/internal/faultproxy"
	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// newFlakyShard fronts one node with a connection-level fault proxy:
// Kill cuts the gateway's stream (and any other connection) to it and
// refuses new ones — a genuine transport failure, exactly what the
// gateway sees when a shard is SIGKILLed mid-batch — and Revive brings
// the same URL back.
func newFlakyShard(t *testing.T, target string) *faultproxy.Proxy {
	t.Helper()
	p, err := faultproxy.New(target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// predictRec runs one /v1/predict through the gateway handler and
// returns the raw recorder (status + headers + body).
func predictRec(t *testing.T, g *Gateway, req server.PredictRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, hr)
	return rec
}

// wave fires all requests concurrently (start-barrier synchronized, so
// their fan-outs overlap with high probability) and returns the recorders
// in request order.
func wave(t *testing.T, g *Gateway, reqs []server.PredictRequest) []*httptest.ResponseRecorder {
	t.Helper()
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			recs[i] = predictRec(t, g, reqs[i])
		}(i)
	}
	close(start)
	wg.Wait()
	return recs
}

// ownedTags returns one tag per shard of the ring, owned by that shard,
// none of them in the fixture's vocabulary and all of them distinct for
// distinct labels: a predict carrying them needs a leg to every shard,
// whatever the gateway has cached for other tags, and since an unknown
// tag carries no weight they change no answer.
func ownedTags(rg *ring.Ring, label string) []string {
	tags := make([]string, rg.Shards())
	for found, i := 0, 0; found < len(tags); i++ {
		tag := fmt.Sprintf("zz-%s-%d", label, i)
		if s := rg.Owner(tag); tags[s] == "" {
			tags[s] = tag
			found++
		}
	}
	return tags
}

// TestPredictShardDeathMidFlight pins the predict path's failure
// isolation under concurrency: a shard dying under a wave of concurrent
// predicts must fail exactly the requests that need a leg to it — every
// one of them with a retryable 503+Retry-After, not a 502 — and must
// not poison later requests: the next wave after the death fails the
// same clean way, and once the shard is back the very next wave serves
// answers identical to the pre-death ones, through the same gateway and
// the same shard stream. Every request of every wave ends in a tag of
// shard 2's that no earlier wave asked for, so each one needs a leg to
// the dying shard however warm the row cache is; the mirror case — rows
// all cached, no leg, 200 through the death — is pinned too.
func TestPredictShardDeathMidFlight(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	flaky := newFlakyShard(t, nodes[2].ts.URL)
	targets := []string{nodes[0].ts.URL, nodes[1].ts.URL, flaky.URL()}
	g := newSyncedGateway(t, targets, func(c *GatewayConfig) {
		// High threshold: the point is the in-flight fan-out verdict,
		// not health shedding — the shard must never be marked down, so
		// every wave exercises the fan-out's own failure path.
		c.FailThreshold = 1000
	})

	// Distinct singles in flight together; the last one is
	// prior-fallback, so known=false survives the round trip too.
	tagSets := [][]string{{"pop"}, {"favela", "samba"}, {"music", "pop"}, {"favela"}, {"zz-unknown"}}
	rg := g.topo.Load().ring
	waveReqs := func(waveNo int) []server.PredictRequest {
		reqs := make([]server.PredictRequest, len(tagSets))
		for i, tags := range tagSets {
			cold := ownedTags(rg, fmt.Sprintf("death-%d-%d", waveNo, i))[2]
			reqs[i] = server.PredictRequest{Tags: append(append([]string(nil), tags...), cold), Weighting: "idf", Top: 5}
		}
		return reqs
	}

	// Wave 0: healthy reference answers.
	healthy := waveReqs(0)
	before := wave(t, g, healthy)
	for i, rec := range before {
		if rec.Code != http.StatusOK {
			t.Fatalf("healthy wave req %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}

	// Shard 2 dies. Two consecutive waves must fail cleanly: every
	// request 503 with a Retry-After hint — the same retryable verdict
	// health shedding gives — and the shard must NOT get marked down
	// (high threshold), proving the verdict came from the fan-out path.
	flaky.Kill()
	for i, rec := range wave(t, g, healthy) {
		// The detector window: rows read before the death stay valid for
		// the epoch last observed, so a request needing nothing else is
		// answered without noticing.
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), before[i].Body.Bytes()) {
			t.Fatalf("cached req %d through the death: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	for waveNo := 1; waveNo <= 2; waveNo++ {
		recs := wave(t, g, waveReqs(waveNo))
		for i, rec := range recs {
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("dead wave %d req %d: status %d, want 503: %s", waveNo, i, rec.Code, rec.Body.Bytes())
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Fatalf("dead wave %d req %d: 503 without Retry-After", waveNo, i)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("dead wave %d req %d: no error envelope: %q", waveNo, i, rec.Body.Bytes())
			}
		}
	}
	if g.topo.Load().shards[2].down.Load() {
		t.Fatal("shard 2 was marked down; the test meant to exercise the fan-out verdict, not shedding")
	}

	// Shard back: the next wave must be clean — same status, same
	// known flags, same shares as before the death. A poisoned stream
	// or pool (a stale waiter, a dead leg's error or a failed request's
	// pooled scratch leaking forward) fails exactly here.
	flaky.Revive()
	after := wave(t, g, waveReqs(3))
	for i, rec := range after {
		if rec.Code != http.StatusOK {
			t.Fatalf("revived wave req %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		var want, got server.PredictResponse
		if err := json.Unmarshal(before[i].Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Result == nil || want.Result == nil {
			t.Fatalf("revived wave req %d: missing result", i)
		}
		if got.Result.Known != want.Result.Known {
			t.Fatalf("revived wave req %d: known=%v, was %v before death", i, got.Result.Known, want.Result.Known)
		}
		if len(got.Result.Top) != len(want.Result.Top) {
			t.Fatalf("revived wave req %d: %d countries, was %d", i, len(got.Result.Top), len(want.Result.Top))
		}
		for c := range want.Result.Top {
			if got.Result.Top[c].Country != want.Result.Top[c].Country ||
				got.Result.Top[c].Share != want.Result.Top[c].Share {
				t.Fatalf("revived wave req %d country %d: %+v, was %+v",
					i, c, got.Result.Top[c], want.Result.Top[c])
			}
		}
	}
}

// TestIngestShardDeathSheds pins the shared shard-reply mapping: a
// shard dying under an ingest scatter gets the same retryable verdict
// as one dying under a predict fan-out — 503 + Retry-After, not a 502 —
// and the transport failure feeds the health tracker exactly once.
func TestIngestShardDeathSheds(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	flaky := newFlakyShard(t, nodes[2].ts.URL)
	targets := []string{nodes[0].ts.URL, nodes[1].ts.URL, flaky.URL()}
	// High threshold: the verdict must come from the in-flight gather,
	// not from health shedding.
	g := newSyncedGateway(t, targets, func(c *GatewayConfig) { c.FailThreshold = 1000 })

	// An upload is announced to every shard, so shard 2 is involved
	// wherever the ring puts the tag.
	body, err := json.Marshal(server.IngestRequest{Events: []server.IngestEvent{
		{Video: "dead-1", Tags: []string{"zz-dead"}, Country: "JP", Views: 10, Upload: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	flaky.Kill()
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest through a dying shard: status %d, want 503: %s", rec.Code, rec.Body.Bytes())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "shard 2") {
		t.Fatalf("error envelope does not name shard 2: %q", rec.Body.Bytes())
	}
	if fails := g.topo.Load().shards[2].fails.Load(); fails != 1 {
		t.Fatalf("shard 2 failure counted %d times, want 1", fails)
	}
}

// TestTagsShardDeathSheds pins /v1/tags to the shard-reply mapping the
// other routes share: a shard that died and is not yet marked down fails
// the request with a retryable 503 whose Retry-After is one health
// interval and whose error names the shard, not a 502; a shard's own shed
// keeps the shard's Retry-After.
func TestTagsShardDeathSheds(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	flaky := newFlakyShard(t, nodes[2].ts.URL)
	targets := []string{nodes[0].ts.URL, nodes[1].ts.URL, flaky.URL()}
	g := newSyncedGateway(t, targets, func(c *GatewayConfig) { c.HealthInterval = 3 * time.Second })
	flaky.Kill()
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tags?k=5", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("tags through a dead shard: status %d, want 503: %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want one health interval, \"3\"", got)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "shard 2") {
		t.Fatalf("error envelope does not name shard 2: %q", rec.Body.Bytes())
	}
	if fails := g.topo.Load().shards[2].fails.Load(); fails != 1 {
		t.Fatalf("shard 2 failure counted %d times, want 1", fails)
	}

	rg, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	shedding := newSyncedGateway(t, []string{newFakeShard(t, rg.Signature()).ts.URL}, nil)
	rec = httptest.NewRecorder()
	shedding.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tags?k=5", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "7" {
		t.Fatalf("tags over a shedding shard: status %d, Retry-After %q, want 503 and the shard's \"7\"",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}
