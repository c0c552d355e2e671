// Observability integration tests at repository scope: a real 3-shard
// tier behind a real gateway, asserting the /metrics expositions are
// conformant Prometheus text while traffic flows, that /v1/stats'
// histogram-derived quantiles are coherent, and that one X-Request-Id
// follows a request through the gateway log, every shard's log and the
// response the client holds — each concurrent request under its own id
// and no other.
package viewstags_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// logBuf is a goroutine-safe log sink the trace assertions grep.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startLoggedNode is startClusterNode with access logging captured
// into a buffer, for the trace-propagation assertions.
func startLoggedNode(t *testing.T, rg *ring.Ring, index, count int, foldEvery time.Duration, buf *logBuf) *clusterNode {
	t.Helper()
	o := nodeOptions(index, count, rg.Replicas(), foldEvery)
	o.Server.Logger = log.New(buf, "", 0)
	o.Server.LogRequests = true
	return startNode(t, o, fixtureBase(t, index, count, rg.Replicas()))
}

// scrape fetches a /metrics exposition, checks status and content
// type, and runs the full text-format conformance validator over it.
func scrape(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", base, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: status %d: %s", base, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("GET %s/metrics: Content-Type %q, want %q", base, ct, obs.TextContentType)
	}
	if err := obs.Validate(body); err != nil {
		t.Fatalf("GET %s/metrics: malformed exposition: %v\n%s", base, err, body)
	}
	return string(body)
}

// TestMetricsEndToEnd drives a 3-shard tier under mixed read/write
// load, scrapes the gateway and one shard mid-run, validates both
// expositions, and checks the stats quantiles cohere.
func TestMetricsEndToEnd(t *testing.T) {
	foldEvery := 15 * time.Millisecond
	tr := newTier(t, 3, 1, foldEvery)
	tr.opts.Gateway.HealthInterval = 20 * time.Millisecond
	targets := tr.urls()
	tr.RestartGateway(t, targets)
	gw, client := tr.gw, tr.client

	// Mixed traffic: predicts and ingest batches (so folds happen and
	// the fold histogram fills), scraping both tiers mid-run.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var pr server.PredictResponse
				if code := postJSON(t, client, gw.URL+"/v1/predict",
					server.PredictRequest{Tags: []string{"pop", "music"}, Top: 3}, &pr); code != http.StatusOK {
					t.Errorf("predict: status %d", code)
					return
				}
				if i%5 == 0 {
					events := []server.IngestEvent{{
						Video: fmt.Sprintf("obs-%d-%d", w, i), Tags: []string{"pop"},
						Country: "US", Views: 5, Upload: true,
					}}
					if code := postJSON(t, client, gw.URL+"/v1/ingest",
						server.IngestRequest{Events: events}, nil); code != http.StatusOK {
						t.Errorf("ingest: status %d", code)
						return
					}
				}
			}
		}(w)
	}
	// Scrape while the load is still flowing: the exposition must be
	// parseable mid-write, not just at rest.
	gwText := scrape(t, client, gw.URL)
	shardText := scrape(t, client, targets[0])
	wg.Wait()

	// Folds have run by now (the ingest acks prove events got in);
	// scrape again at rest for the content assertions so counts are
	// settled.
	time.Sleep(4 * foldEvery)
	gwText = scrape(t, client, gw.URL)
	shardText = scrape(t, client, targets[0])
	for _, want := range []string{
		`viewstags_requests_total{route="predict"}`,
		"viewstags_request_duration_seconds_bucket",
		`viewstags_shard_up{shard="0"} 1`,
		`viewstags_shard_up{shard="2"} 1`,
		"viewstags_cluster_min_epoch",
		"go_goroutines",
	} {
		if !strings.Contains(gwText, want) {
			t.Errorf("gateway exposition missing %q", want)
		}
	}
	for _, want := range []string{
		`viewstags_requests_total{route="internal"}`,
		"viewstags_request_duration_seconds_bucket",
		"viewstags_ingest_fold_duration_seconds_bucket",
		"viewstags_ingest_events_total",
		"go_heap_alloc_bytes",
	} {
		if !strings.Contains(shardText, want) {
			t.Errorf("shard exposition missing %q", want)
		}
	}

	// Resident memory: both daemons, both surfaces (how big must the
	// container be, and did boot or traffic set the peak).
	_, _, procfs := obs.ResidentMemory()
	for _, name := range []string{"process_resident_memory_bytes", "viewstags_process_peak_rss_bytes"} {
		if strings.Contains(gwText, name+" ") != procfs || strings.Contains(shardText, name+" ") != procfs {
			t.Errorf("%s: want on both expositions exactly when /proc/self/status is readable (%v)", name, procfs)
		}
	}

	// /v1/stats quantiles come from the same histograms: they must be
	// ordered and the mean must be inside the observed range.
	var stats struct {
		Predict      server.RouteSnapshot `json:"predict"`
		RSSBytes     int64                `json:"rss_bytes"`
		PeakRSSBytes int64                `json:"peak_rss_bytes"`
	}
	resp, err := client.Get(gw.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	p := stats.Predict
	if p.Requests == 0 {
		t.Fatal("gateway /v1/stats reports zero predict requests after load")
	}
	if procfs && (stats.RSSBytes <= 0 || stats.PeakRSSBytes < stats.RSSBytes) {
		t.Errorf("gateway /v1/stats resident memory: rss %d, peak %d", stats.RSSBytes, stats.PeakRSSBytes)
	}
	if p.MeanMs <= 0 || p.P50Ms <= 0 {
		t.Errorf("predict latency stats not populated: %+v", p)
	}
	if p.P50Ms > p.P95Ms || p.P95Ms > p.P99Ms {
		t.Errorf("predict quantiles out of order: p50=%v p95=%v p99=%v", p.P50Ms, p.P95Ms, p.P99Ms)
	}
}

// TestTraceEndToEnd asserts the request-id contract: an id supplied by
// the client comes back on the response, shows up in the gateway's
// access log, and reaches every shard's access log over the internal
// fan-out — and two requests in flight together each make their own
// internal calls, every one carrying exactly its own request's id.
func TestTraceEndToEnd(t *testing.T) {
	const shards = 2
	foldEvery := 50 * time.Millisecond
	rg, err := ring.New(shards, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The tier's own nodes would log elsewhere: these log into buffers.
	tr := newTier(t, 0, 1, foldEvery)
	shardLogs := make([]*logBuf, shards)
	for i := range shardLogs {
		shardLogs[i] = &logBuf{}
		tr.nodes = append(tr.nodes, startLoggedNode(t, rg, i, shards, foldEvery, shardLogs[i]))
	}
	gwLog := &logBuf{}
	tr.opts.Gateway.Logger = log.New(gwLog, "", 0)
	tr.opts.Gateway.LogRequests = true
	tr.RestartGateway(t, tr.urls())
	gw, client := tr.gw, tr.client

	post := func(id string) *http.Response {
		t.Helper()
		// Cold tags of every shard's (legTags), distinct per id: a
		// gateway that already held the rows would not call a shard, and
		// this test is about what the shard-bound leg carries.
		body := strings.NewReader(`{"tags":[` + legTags(rg, shards, "e2e"+id) + `],"top":3}`)
		req, err := http.NewRequest(http.MethodPost, gw.URL+"/v1/predict", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.TraceHeader, id)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Two concurrent predicts with distinct ids: each runs its own
	// fan-out, so every shard-bound leg must carry one id, whole.
	idA, idB := "trace-e2e-aaaa", "trace-e2e-bbbb"
	var wg sync.WaitGroup
	for _, id := range []string{idA, idB} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp := post(id)
			defer func() { _ = resp.Body.Close() }()
			_, _ = io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("predict %s: status %d", id, resp.StatusCode)
			}
			if got := resp.Header.Get(obs.TraceHeader); got != id {
				t.Errorf("predict %s: response %s = %q, want the id echoed", id, obs.TraceHeader, got)
			}
		}(id)
	}
	wg.Wait()

	if gwText := gwLog.String(); !strings.Contains(gwText, "trace="+idA) || !strings.Contains(gwText, "trace="+idB) {
		t.Errorf("gateway access log missing a trace id:\n%s", gwText)
	}
	for i, sl := range shardLogs {
		text := sl.String()
		var sawA, sawB bool
		for _, line := range strings.Split(text, "\n") {
			a, b := strings.HasSuffix(line, "trace="+idA), strings.HasSuffix(line, "trace="+idB)
			sawA, sawB = sawA || a, sawB || b
			if !a && !b && (strings.Contains(line, idA) || strings.Contains(line, idB)) {
				t.Errorf("shard %d access-log line carries a request's id beside something else: %s", i, line)
			}
		}
		if !sawA || !sawB {
			t.Errorf("shard %d access log is missing a leg under its own request's id:\n%s", i, text)
		}
	}

	// A malformed error still echoes the id — in the header AND the
	// JSON envelope.
	resp := post("")
	raw, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	var envelope struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("error body not JSON: %v: %s", err, raw)
	}
	// An empty inbound id is replaced with a generated one; it must be
	// present and consistent between header and body. Drive an actual
	// error with a bad payload to exercise WriteError.
	badBody := strings.NewReader(`{"tags":[],"batch":[]}`)
	req, err := http.NewRequest(http.MethodPost, gw.URL+"/v1/predict", badBody)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "trace-e2e-err1")
	eresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	eraw, _ := io.ReadAll(eresp.Body)
	_ = eresp.Body.Close()
	if eresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty predict: status %d, want 400: %s", eresp.StatusCode, eraw)
	}
	if err := json.Unmarshal(eraw, &envelope); err != nil {
		t.Fatalf("error envelope not JSON: %v: %s", err, eraw)
	}
	if envelope.RequestID != "trace-e2e-err1" {
		t.Errorf("error envelope request_id = %q, want %q (body %s)", envelope.RequestID, "trace-e2e-err1", eraw)
	}
	if got := eresp.Header.Get(obs.TraceHeader); got != "trace-e2e-err1" {
		t.Errorf("error response %s = %q, want the id echoed", obs.TraceHeader, got)
	}
}
