package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/bincodec"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

var (
	fixOnce sync.Once
	fixRes  *pipeline.Result
	fixErr  error
)

func fixture(t *testing.T) *pipeline.Result {
	t.Helper()
	fixOnce.Do(func() {
		fixRes, fixErr = pipeline.FromSynthetic(3000, 20110301, alexa.DefaultConfig())
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixRes
}

// node is one in-process cluster member: a real HTTP server over a
// shard (or full) snapshot, with its write path attached but folded
// manually (comp.FoldNow) for determinism.
type node struct {
	srv   *server.Server
	store *profilestore.Store // the store srv serves
	acc   *ingest.Accumulator
	comp  *ingest.Compactor
	ts    *httptest.Server
}

// startNode builds one shard daemon (index/count identify it; count 1 =
// standalone full node) over the fixture, serving on a real loopback
// listener.
func startNode(t *testing.T, rg *ring.Ring, index, count int) *node {
	t.Helper()
	return startNodeWith(t, rg, index, count, nil)
}

// startNodeWith is startNode with a hook to adjust the server config.
func startNodeWith(t *testing.T, rg *ring.Ring, index, count int, mutate func(*server.Config)) *node {
	t.Helper()
	res := fixture(t)
	var owns func(string) bool
	if count > 1 {
		owns = func(name string) bool { return rg.Owner(name) == index }
	}
	snap, err := profilestore.BuildOwned(res.Analysis, owns)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.ShardIndex = index
	cfg.ShardCount = count
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ingest.NewAccumulator(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableIngest(acc, time.Second); err != nil {
		t.Fatal(err)
	}
	srv.SetReady()
	comp, err := ingest.NewCompactor(acc, time.Hour, func(d []profilestore.TagDelta, n int) error {
		return srv.ApplyDeltas(d, n, tagviews.WeightIDF)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := &node{srv: srv, store: store, acc: acc, comp: comp, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(n.ts.Close)
	return n
}

// startCluster stands up `shards` shard nodes plus a synced gateway.
func startCluster(t *testing.T, shards int) ([]*node, *Gateway) {
	t.Helper()
	rg, err := ring.New(shards, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*node, shards)
	targets := make([]string, shards)
	for i := range nodes {
		nodes[i] = startNode(t, rg, i, shards)
		targets[i] = nodes[i].ts.URL
	}
	cfg := DefaultGatewayConfig()
	cfg.FailThreshold = 2
	g, err := NewGateway(cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	return nodes, g
}

// rawBody is a request body post sends as written instead of
// marshalling it: the malformed bodies no Go value encodes to.
type rawBody string

// post round-trips one JSON request against a live URL.
// announce POSTs bare upload announcements to a shard's /internal/ingest
// and returns the status.
func announce(t *testing.T, shardURL string, videos ...string) int {
	t.Helper()
	var body bincodec.Writer
	ingest.AppendBatch(&body, nil, videos)
	resp, err := http.Post(shardURL+server.InternalIngestPath, server.IngestContentType, bytes.NewReader(body.B))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	return resp.StatusCode
}

func post(t *testing.T, url string, req, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if raw, ok := req.(rawBody); ok {
		buf.WriteString(string(raw))
	} else if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if out != nil {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, out); err != nil {
				t.Fatalf("POST %s: decode %q: %v", url, raw, err)
			}
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// gatewayServer wraps a synced gateway in a live HTTP server.
func gatewayServer(t *testing.T, g *Gateway) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// sharesOf flattens a top list for comparison.
func sharesOf(top []server.CountryShare) map[string]float64 {
	m := make(map[string]float64, len(top))
	for _, cs := range top {
		m[cs.Country] = cs.Share
	}
	return m
}

// TestGatewayPredictMatchesSingleNode is the tentpole acceptance test
// at package scope: over real HTTP, a 3-shard gateway's /v1/predict
// answers — single and batched, across all weightings, known and
// fallback — match a single full node's share for share.
func TestGatewayPredictMatchesSingleNode(t *testing.T) {
	res := fixture(t)
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := startNode(t, ringOne, 0, 1)
	_, g := startCluster(t, 3)
	gw := gatewayServer(t, g)

	nC := res.World.N()
	cases := [][]string{
		{"favela", "samba"},
		{"pop"},
		{"pop", "music", "favela", "zz-unknown"},
		{"zz-unknown-a", "zz-unknown-b"}, // prior fallback
		res.Analysis.TagNames()[:30],     // spans all shards with rank discounts
	}
	for _, weighting := range []string{"uniform", "by-views", "idf"} {
		for ci, tags := range cases {
			var want, got server.PredictResponse
			req := server.PredictRequest{Tags: tags, Weighting: weighting, Top: nC}
			if code := post(t, full.ts.URL+"/v1/predict", req, &want); code != http.StatusOK {
				t.Fatalf("single-node predict: %d", code)
			}
			if code := post(t, gw.URL+"/v1/predict", req, &got); code != http.StatusOK {
				t.Fatalf("gateway predict: %d", code)
			}
			if got.Result.Known != want.Result.Known {
				t.Fatalf("w=%s case %d: known %v vs %v", weighting, ci, got.Result.Known, want.Result.Known)
			}
			wantShares, gotShares := sharesOf(want.Result.Top), sharesOf(got.Result.Top)
			if len(wantShares) != len(gotShares) {
				t.Fatalf("w=%s case %d: %d countries vs %d", weighting, ci, len(gotShares), len(wantShares))
			}
			for country, share := range wantShares {
				if gotShares[country] != share {
					t.Fatalf("w=%s case %d %s: gateway %v, single %v", weighting, ci, country, gotShares[country], share)
				}
			}
		}
	}

	// Batched: one request, every case as an item.
	batchReq := server.PredictRequest{Top: 3}
	for _, tags := range cases {
		batchReq.Batch = append(batchReq.Batch, server.PredictItem{Tags: tags})
	}
	var want, got server.PredictResponse
	if code := post(t, full.ts.URL+"/v1/predict", batchReq, &want); code != http.StatusOK {
		t.Fatalf("single-node batch: %d", code)
	}
	if code := post(t, gw.URL+"/v1/predict", batchReq, &got); code != http.StatusOK {
		t.Fatalf("gateway batch: %d", code)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("batch shape: %d vs %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		ws, gs := sharesOf(want.Results[i].Top), sharesOf(got.Results[i].Top)
		for country, share := range ws {
			if gs[country] != share {
				t.Fatalf("batch item %d %s: gateway %v, single %v", i, country, gs[country], share)
			}
		}
	}
}

// TestGatewayIngestEquivalence: the same upload stream pushed through
// the gateway (split per owner) and into a single full node, folded on
// both sides, yields matching predictions and the same corpus growth on
// every shard.
func TestGatewayIngestEquivalence(t *testing.T) {
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := startNode(t, ringOne, 0, 1)
	nodes, g := startCluster(t, 3)
	gw := gatewayServer(t, g)

	// Multi-tag events: tag lists span shards, so every event exercises
	// the split+announce path. zz-cluster-a/b/c hash wherever the ring
	// puts them.
	events := []server.IngestEvent{
		{Video: "cl-1", Tags: []string{"zz-cluster-a", "zz-cluster-b", "zz-cluster-c"}, Country: "JP", Views: 300, Upload: true},
		{Video: "cl-1", Tags: []string{"zz-cluster-a", "zz-cluster-b", "zz-cluster-c"}, Country: "US", Views: 100},
		{Video: "cl-2", Tags: []string{"zz-cluster-b", "pop"}, Country: "BR", Views: 50, Upload: true},
	}
	var gwAck, fullAck server.IngestResponse
	if code := post(t, gw.URL+"/v1/ingest", server.IngestRequest{Events: events}, &gwAck); code != http.StatusOK {
		t.Fatalf("gateway ingest: %d", code)
	}
	if gwAck.Accepted != len(events) {
		t.Fatalf("gateway accepted %d, want %d", gwAck.Accepted, len(events))
	}
	if code := post(t, full.ts.URL+"/v1/ingest", server.IngestRequest{Events: events}, &fullAck); code != http.StatusOK {
		t.Fatalf("single-node ingest: %d", code)
	}

	recordsBefore := make([]int, len(nodes))
	for i, n := range nodes {
		recordsBefore[i] = n.store.Load().Records()
	}
	for _, n := range nodes {
		if _, err := n.comp.FoldNow(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := full.comp.FoldNow(); err != nil {
		t.Fatal(err)
	}

	// Every shard's corpus grew by exactly the 2 uploads — including
	// shards owning none of the uploads' tags (the announcement path).
	for i, n := range nodes {
		if got := n.store.Load().Records(); got != recordsBefore[i]+2 {
			t.Fatalf("shard %d records %d, want %d (+2 uploads)", i, got, recordsBefore[i]+2)
		}
	}

	for _, tags := range [][]string{
		{"zz-cluster-a"},
		{"zz-cluster-b", "zz-cluster-c"},
		{"zz-cluster-c", "pop", "zz-cluster-a"},
	} {
		var want, got server.PredictResponse
		req := server.PredictRequest{Tags: tags, Top: 5}
		if code := post(t, full.ts.URL+"/v1/predict", req, &want); code != http.StatusOK {
			t.Fatalf("single predict: %d", code)
		}
		if code := post(t, gw.URL+"/v1/predict", req, &got); code != http.StatusOK {
			t.Fatalf("gateway predict: %d", code)
		}
		if !got.Result.Known || !want.Result.Known {
			t.Fatalf("ingested tags unknown: gw=%v single=%v", got.Result.Known, want.Result.Known)
		}
		ws, gs := sharesOf(want.Result.Top), sharesOf(got.Result.Top)
		for country, share := range ws {
			if gs[country] != share {
				t.Fatalf("%v %s: gateway %v, single %v", tags, country, gs[country], share)
			}
		}
	}
}

// TestGatewayIngestValidationMatchesNode: the gateway refuses a bad
// event with the single node's own verdict — same status, same message —
// because both run ingest.Validate after resolving country codes. Every
// bad event sits second in its batch, so the reported index is checked
// too.
func TestGatewayIngestValidationMatchesNode(t *testing.T) {
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := startNode(t, ringOne, 0, 1)
	_, g := startCluster(t, 3)
	gw := gatewayServer(t, g)

	good := server.IngestEvent{Video: "ok-1", Tags: []string{"pop"}, Country: "JP", Views: 1}
	for _, tc := range []struct {
		name string
		bad  server.IngestEvent
	}{
		{"no tags", server.IngestEvent{Video: "v", Country: "JP", Views: 1}},
		{"too many tags", server.IngestEvent{Video: "v", Tags: make([]string, ingest.MaxEventTags+1), Country: "JP", Views: 1}},
		{"empty tag", server.IngestEvent{Video: "v", Tags: []string{"pop", ""}, Country: "JP", Views: 1}},
		{"unknown country", server.IngestEvent{Video: "v", Tags: []string{"pop"}, Country: "ZZ", Views: 1}},
		{"negative views", server.IngestEvent{Video: "v", Tags: []string{"pop"}, Country: "JP", Views: -1}},
		{"upload without id", server.IngestEvent{Tags: []string{"pop"}, Country: "JP", Views: 1, Upload: true}},
	} {
		req := server.IngestRequest{Events: []server.IngestEvent{good, tc.bad}}
		var node, edge struct {
			Error string `json:"error"`
		}
		nodeCode := post(t, full.ts.URL+"/v1/ingest", req, &node)
		edgeCode := post(t, gw.URL+"/v1/ingest", req, &edge)
		if nodeCode != http.StatusBadRequest || node.Error == "" {
			t.Fatalf("%s: single node answered %d %q, want a 400", tc.name, nodeCode, node.Error)
		}
		if edgeCode != nodeCode || edge.Error != node.Error {
			t.Errorf("%s: gateway %d %q, single node %d %q", tc.name, edgeCode, edge.Error, nodeCode, node.Error)
		}
	}
}

// TestGatewayEpochSkewKeepsServing pins the degraded-but-serving
// contract: when one shard has folded ahead of the others, the gateway
// reports the minimum epoch on /healthz and /v1/stats — the
// conservative horizon an ingest ack must be compared against — and
// keeps answering predictions.
func TestGatewayEpochSkewKeepsServing(t *testing.T) {
	nodes, g := startCluster(t, 3)
	gw := gatewayServer(t, g)

	// Advance only shard 0: direct internal ingest + fold.
	if code := announce(t, nodes[0].ts.URL, "skew-1"); code != http.StatusOK {
		t.Fatalf("shard ingest: %d", code)
	}
	if folded, err := nodes[0].comp.FoldNow(); err != nil || !folded {
		t.Fatalf("fold: %v %v", err, folded)
	}
	if nodes[0].acc.Epoch() != 1 {
		t.Fatalf("shard 0 epoch %d, want 1", nodes[0].acc.Epoch())
	}
	g.RefreshHealth(context.Background())

	var health struct {
		Status  string `json:"status"`
		Epoch   uint64 `json:"epoch"`
		Healthy int    `json:"healthy"`
	}
	if code := get(t, gw.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Epoch != 0 {
		t.Fatalf("healthz epoch %d, want 0 (the minimum across a 1/0/0 skew)", health.Epoch)
	}
	if health.Status != "ok" || health.Healthy != 3 {
		t.Fatalf("skewed-but-healthy cluster reported %+v", health)
	}

	var stats struct {
		Cluster ClusterStats `json:"cluster"`
	}
	if code := get(t, gw.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Cluster.Epoch != 0 {
		t.Fatalf("stats cluster epoch %d, want 0", stats.Cluster.Epoch)
	}
	if stats.Cluster.Shards[0].Epoch != 1 {
		t.Fatalf("shard 0 epoch %d in stats, want 1", stats.Cluster.Shards[0].Epoch)
	}

	// And the skewed cluster still serves reads.
	var pr server.PredictResponse
	if code := post(t, gw.URL+"/v1/predict", server.PredictRequest{Tags: []string{"pop"}}, &pr); code != http.StatusOK || !pr.Result.Known {
		t.Fatalf("predict under epoch skew: code=%d known=%v", code, pr.Result != nil && pr.Result.Known)
	}
}

// TestGatewayHealthShedding: a dead shard is detected by the poll and
// requests that need it are shed with 503 + Retry-After instead of
// stacking timeouts; /healthz stays 200 but reports degraded.
func TestGatewayHealthShedding(t *testing.T) {
	nodes, g := startCluster(t, 3)
	gw := gatewayServer(t, g)

	nodes[1].ts.Close()
	for i := 0; i < 3; i++ { // FailThreshold is 2 in startCluster
		g.RefreshHealth(context.Background())
	}

	var e struct {
		Error string `json:"error"`
	}
	resp, err := http.Post(gw.URL+"/v1/predict", "application/json",
		bytes.NewBufferString(`{"tags":["pop"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict with a dead shard: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("shed without error envelope: %v %q", err, e.Error)
	}

	if code := post(t, gw.URL+"/v1/ingest", server.IngestRequest{Events: []server.IngestEvent{
		{Video: "hs-1", Tags: []string{"pop"}, Country: "US", Views: 1, Upload: true},
	}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest with a dead shard: %d, want 503", code)
	}

	var health struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	if code := get(t, gw.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "degraded" || health.Healthy != 2 {
		t.Fatalf("degraded cluster reported %+v", health)
	}
}

// TestGatewayEmptyInputs pins the gateway-side empty-input contract: an
// explicitly empty tags/batch/events list is a 400 at the edge — no
// shard is ever contacted, no epoch moves. The same goes for the bodies
// the strict decoder refuses: unknown fields and anything after the
// JSON value.
func TestGatewayEmptyInputs(t *testing.T) {
	nodes, g := startCluster(t, 3)
	gw := gatewayServer(t, g)
	cases := []struct {
		name string
		path string
		req  any
	}{
		{"predict empty tags", "/v1/predict", map[string]any{"tags": []string{}}},
		{"predict empty batch", "/v1/predict", map[string]any{"batch": []any{}}},
		{"ingest empty events", "/v1/ingest", map[string]any{"events": []any{}}},
		{"predict unknown field", "/v1/predict", map[string]any{"tagz": []string{"pop"}}},
		{"predict trailing garbage", "/v1/predict", rawBody(`{"tags":["pop"]}garbage`)},
		{"predict second value", "/v1/predict", rawBody(`{"tags":["pop"]} {"tags":["pop"]}`)},
		{"ingest unknown field", "/v1/ingest", map[string]any{"eventz": []any{}}},
		{"ingest trailing garbage", "/v1/ingest", rawBody(`{"events":[{"tags":["pop"],"country":"JP","views":1}]}]`)},
		{"reshard trailing garbage", "/v1/reshard", rawBody(`{"targets":[]}x`)},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := post(t, gw.URL+c.path, c.req, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		} else if e.Error == "" {
			t.Errorf("%s: no error envelope", c.name)
		}
	}
	for i, n := range nodes {
		if n.acc.Stats().Events != 0 {
			t.Fatalf("shard %d saw events from an empty request", i)
		}
	}
}

// TestGatewayStatsCountsEvents: /v1/stats "events" counts the view events
// a daemon accepted — the gateway at its edge, each shard over
// /internal/ingest — and a refused batch counts nothing.
func TestGatewayStatsCountsEvents(t *testing.T) {
	nodes, g := startCluster(t, 3)
	gw := gatewayServer(t, g)
	const n = 7
	for i := 0; i < n; i++ {
		if code := post(t, gw.URL+"/v1/ingest", server.IngestRequest{Events: []server.IngestEvent{
			{Video: fmt.Sprintf("ev-%d", i), Tags: []string{"pop", "music", "zz-ev"}, Country: "US", Views: 3, Upload: true},
		}}, nil); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, code)
		}
	}
	if code := post(t, gw.URL+"/v1/ingest", server.IngestRequest{Events: []server.IngestEvent{
		{Video: "ev-bad", Tags: []string{"pop"}, Country: "ZZ", Views: 1},
	}}, nil); code != http.StatusBadRequest {
		t.Fatalf("ingest with an unknown country: status %d, want 400", code)
	}
	var stats struct {
		Events int64 `json:"events"`
	}
	if code := get(t, gw.URL+"/v1/stats", &stats); code != http.StatusOK || stats.Events != n {
		t.Fatalf("gateway /v1/stats: status %d, events %d, want 200 and %d", code, stats.Events, n)
	}
	for i, node := range nodes {
		if got, want := node.srv.Metrics().Snapshot().Events, node.acc.Stats().Events; got != want {
			t.Errorf("shard %d: stats events %d, accumulator accepted %d", i, got, want)
		}
	}
}

// TestGatewayTagsMerge: the merged top-k equals a single full node's
// (tags are partitioned, so the global ranking is a k-way merge).
func TestGatewayTagsMerge(t *testing.T) {
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := startNode(t, ringOne, 0, 1)
	_, g := startCluster(t, 3)
	gw := gatewayServer(t, g)

	var want, got struct {
		Tags []server.TagInfo `json:"tags"`
	}
	if code := get(t, full.ts.URL+"/v1/tags?k=25", &want); code != http.StatusOK {
		t.Fatalf("single tags: %d", code)
	}
	if code := get(t, gw.URL+"/v1/tags?k=25", &got); code != http.StatusOK {
		t.Fatalf("gateway tags: %d", code)
	}
	if len(got.Tags) != len(want.Tags) {
		t.Fatalf("%d merged tags, single node has %d", len(got.Tags), len(want.Tags))
	}
	for i := range want.Tags {
		if got.Tags[i].Name != want.Tags[i].Name || got.Tags[i].TotalViews != want.Tags[i].TotalViews {
			t.Fatalf("rank %d: gateway %s (%v), single %s (%v)",
				i, got.Tags[i].Name, got.Tags[i].TotalViews, want.Tags[i].Name, want.Tags[i].TotalViews)
		}
	}
}

// TestGatewaySyncRejectsMismatch: a target list whose shards identify
// differently (wrong order ⇒ wrong indices) must fail sync.
func TestGatewaySyncRejectsMismatch(t *testing.T) {
	rg, err := ring.New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := startNode(t, rg, 0, 2)
	b := startNode(t, rg, 1, 2)
	g, err := NewGateway(DefaultGatewayConfig(), []string{b.ts.URL, a.ts.URL}) // swapped
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(context.Background()); err == nil {
		t.Fatal("sync accepted shards in the wrong order")
	}
	// A 3-target gateway over 2-ring shards: ring signature mismatch.
	g3, err := NewGateway(DefaultGatewayConfig(), []string{a.ts.URL, b.ts.URL, b.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.Sync(context.Background()); err == nil {
		t.Fatal("sync accepted a shard partitioned with a different ring")
	}
}

// TestGatewayIngestSkipsDownShardWithoutReviving is the regression test
// for the skipped-shard health bug: an ingest batch that does not
// involve a down shard must still be accepted, and gathering the
// replies of the shards that WERE involved must not reset the uninvolved
// shard's down state (a skipped shard produced no health signal).
func TestGatewayIngestSkipsDownShardWithoutReviving(t *testing.T) {
	nodes, g := startCluster(t, 3)
	gw := gatewayServer(t, g)

	nodes[2].ts.Close()
	for i := 0; i < 3; i++ {
		g.RefreshHealth(context.Background())
	}
	if !g.topo.Load().shards[2].down.Load() {
		t.Fatal("shard 2 not marked down")
	}

	// A tag owned by a live shard; no upload, so shard 2 is uninvolved.
	tag := ""
	for i := 0; ; i++ {
		candidate := fmt.Sprintf("zz-skip-%d", i)
		if owner := g.topo.Load().ring.Owner(candidate); owner != 2 {
			tag = candidate
			break
		}
	}
	if code := post(t, gw.URL+"/v1/ingest", server.IngestRequest{Events: []server.IngestEvent{
		{Tags: []string{tag}, Country: "US", Views: 5},
	}}, nil); code != http.StatusOK {
		t.Fatalf("ingest avoiding the down shard: %d, want 200", code)
	}
	if !g.topo.Load().shards[2].down.Load() {
		t.Fatal("gathering uninvolved-shard replies revived the down shard")
	}
	// And a batch that DOES need shard 2 still sheds.
	if code := post(t, gw.URL+"/v1/ingest", server.IngestRequest{Events: []server.IngestEvent{
		{Video: "up-1", Tags: []string{tag}, Country: "US", Views: 5, Upload: true},
	}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("upload batch (needs every shard): %d, want 503", code)
	}
}

// newSyncedGateway wires and syncs a gateway over live shard targets
// with a config tweak applied.
func newSyncedGateway(t *testing.T, targets []string, mutate func(*GatewayConfig)) *Gateway {
	t.Helper()
	cfg := DefaultGatewayConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewGateway(cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	return g
}

// predictVia runs one /v1/predict request straight through a gateway's
// handler stack and decodes the response.
func predictVia(t *testing.T, g *Gateway, req server.PredictRequest) (int, server.PredictResponse) {
	t.Helper()
	return predictOn(t, g.Handler(), req)
}

// predictOn is predictVia for any handler stack — a gateway's or a
// node's.
func predictOn(t *testing.T, h http.Handler, req server.PredictRequest) (int, server.PredictResponse) {
	t.Helper()
	code, body := predictBody(t, h, req)
	var resp server.PredictResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
	}
	return code, resp
}

// predictBody posts one /v1/predict through a handler stack and returns
// the reply's status and body.
func predictBody(t *testing.T, h http.Handler, req server.PredictRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestGatewayRequestIDBound: the gateway honours an inbound X-Request-Id
// of up to obs.MaxRequestIDLen bytes of [0-9A-Za-z-_.:] and replaces
// anything else — one byte longer, or the comma that once joined several
// requests' ids — with a generated one; whichever id it answers with is
// the one id every shard leg of that request carries.
func TestGatewayRequestIDBound(t *testing.T) {
	nodes, g := startCluster(t, 3)
	rg := g.topo.Load().ring
	for i, tc := range []struct {
		name, id string
		honoured bool
	}{
		{"longest honoured id", strings.Repeat("x", obs.MaxRequestIDLen), true},
		{"one byte too long", strings.Repeat("x", obs.MaxRequestIDLen+1), false},
		{"comma", "aaa,bbb", false},
	} {
		// Cold tags of every shard's, so the request makes a leg to each.
		body, err := json.Marshal(server.PredictRequest{Tags: ownedTags(rg, fmt.Sprintf("rid-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		req.Header.Set(obs.TraceHeader, tc.id)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		got := rec.Header().Get(obs.TraceHeader)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.Bytes())
		}
		if tc.honoured && got != tc.id {
			t.Errorf("%s: id came back as %q, want it echoed whole", tc.name, got)
		}
		if !tc.honoured && (got == tc.id || len(got) != 16 || !obs.ValidRequestID(got)) {
			t.Errorf("%s: id came back as %q, want a generated one", tc.name, got)
		}
		// A shard's first few traces of a route are all retained.
		for s, n := range nodes {
			if v, ok := n.srv.Traces().Get(got); !ok || v.ID != got {
				t.Errorf("%s: shard %d holds no trace under the id the gateway answered with (%q): %+v", tc.name, s, got, v)
			}
		}
	}
}

// TestBarrierDoesNotWaitOnBodies: the request barrier a reshard cutover
// closes covers a request's fan-out, not the client's upload. While it
// covered the whole handler, one client trickling a body held it shared,
// and once a reshard queued for it exclusively every later request on the
// gateway queued behind that client too (a sync.RWMutex stops new readers
// while a writer waits).
func TestBarrierDoesNotWaitOnBodies(t *testing.T) {
	_, g := startCluster(t, 3)
	for _, tc := range []struct{ path, head, tail string }{
		{"/v1/predict", `{"tags":["pop"`, `]}`},
		{"/v1/ingest", `{"events":[{"tags":["zz-barrier"],"country":"US"`, `,"views":1}]}`},
	} {
		pr, pw := io.Pipe()
		done := make(chan int)
		go func() {
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, pr))
			done <- rec.Code
		}()
		// A pipe write returns once the reader has taken the bytes: the
		// handler is inside its body read from here on.
		if _, err := io.WriteString(pw, tc.head); err != nil {
			t.Fatal(err)
		}
		locked := make(chan struct{})
		go func() {
			g.gate.Lock()
			close(locked)
			g.gate.Unlock()
		}()
		var waited bool
		select {
		case <-locked:
		case <-time.After(2 * time.Second):
			waited = true
		}
		_, _ = io.WriteString(pw, tc.tail)
		_ = pw.Close()
		if code := <-done; code != http.StatusOK {
			t.Errorf("%s: %d once the body arrived", tc.path, code)
		}
		<-locked
		if waited {
			t.Errorf("%s: the reshard barrier waited on a client's unfinished body", tc.path)
		}
	}
}

// TestGatewayIngestRefusesOverflowingViews is ROADMAP item 3(xi) through a
// gateway: the two events whose views overflow a tag's sum are the node's
// 400, and once every shard has folded the tag answers as it did.
func TestGatewayIngestRefusesOverflowingViews(t *testing.T) {
	nodes, g := startCluster(t, 2)
	req := server.PredictRequest{Tags: []string{fixture(t).Analysis.TagNames()[0]}, Top: 3}
	_, before := predictBody(t, g.Handler(), req)
	huge := server.IngestEvent{Tags: req.Tags, Country: "US", Views: 1e308}
	if code := ingestOn(t, g.Handler(), []server.IngestEvent{huge, huge}); code != http.StatusBadRequest {
		t.Fatalf("two 1e308 events: %d, want 400", code)
	}
	for _, n := range nodes {
		if _, err := n.comp.FoldNow(); err != nil {
			t.Fatal(err)
		}
	}
	g.RefreshHealth(context.Background())
	if code, after := predictBody(t, g.Handler(), req); code != http.StatusOK || !bytes.Equal(after, before) {
		t.Fatalf("predict after the refused events: %d %s, was %s", code, after, before)
	}
}
