package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// These tests pin the data-plane stream's own failure modes — what the
// gateway does when the one connection to a shard dies, stalls, sheds
// or is abandoned mid-call. The happy path is every other test in the
// package: they all ride the stream.

// gateJournal blocks every ingest on a node until released, which holds
// that node's /internal/ingest frames in flight for as long as a test
// needs them there.
type gateJournal struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func holdIngest(t *testing.T, n *node) *gateJournal {
	t.Helper()
	j := &gateJournal{entered: make(chan struct{}, 256), release: make(chan struct{})}
	n.acc.SetJournal(j)
	t.Cleanup(j.open)
	return j
}

func (j *gateJournal) Append(uint64, []ingest.Event, []string) error {
	j.entered <- struct{}{}
	<-j.release
	return nil
}

func (j *gateJournal) open() { j.once.Do(func() { close(j.release) }) }

// uploadBody is a /v1/ingest body whose upload is announced to every
// shard, so every shard gets a leg.
func uploadBody(t *testing.T, video string) []byte {
	t.Helper()
	body, err := json.Marshal(server.IngestRequest{Events: []server.IngestEvent{
		{Video: video, Tags: []string{"zz-stream"}, Country: "JP", Views: 10, Upload: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func serve(g *Gateway, ctx context.Context, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
	return rec
}

func wantShed(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("%s: status %d Retry-After %q, want 503 with a hint: %s",
			what, rec.Code, rec.Header().Get("Retry-After"), rec.Body.Bytes())
	}
}

// TestStreamShardKilledWithWaitersInFlight is failure mode (a): a shard
// dying with N calls in flight on its stream fails all N the retryable
// way, none hangs, the failures take it out of rotation, and once it is
// back the gateway redials and answers exactly what it answered before.
func TestStreamShardKilledWithWaitersInFlight(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	flaky := newFlakyShard(t, nodes[2].ts.URL)
	g := newSyncedGateway(t, []string{nodes[0].ts.URL, nodes[1].ts.URL, flaky.URL()}, func(c *GatewayConfig) {
		c.FailThreshold = 3
		c.Logger = log.New(io.Discard, "", 0)
	})
	predict := server.PredictRequest{Tags: []string{"favela", "samba", "pop"}, Weighting: "idf", Top: 5}
	before := predictRec(t, g, predict)
	if before.Code != http.StatusOK {
		t.Fatalf("healthy predict: %d", before.Code)
	}

	const waiters = 16
	hold := holdIngest(t, nodes[2])
	recs := make(chan *httptest.ResponseRecorder, waiters)
	body := uploadBody(t, "kill-1")
	for i := 0; i < waiters; i++ {
		go func() { recs <- serve(g, context.Background(), "/v1/ingest", body) }()
	}
	for i := 0; i < waiters; i++ {
		<-hold.entered // all N legs are inside shard 2
	}
	flaky.Kill()
	for i := 0; i < waiters; i++ {
		select {
		case rec := <-recs:
			wantShed(t, "waiter on a killed stream", rec)
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still hanging 5 s after its shard died", i)
		}
	}
	tp := g.topo.Load()
	if !tp.shards[2].down.Load() {
		t.Fatalf("%d transport failures did not mark shard 2 down (fails=%d)", waiters, tp.shards[2].fails.Load())
	}
	wantShed(t, "predict with the shard down", predictRec(t, g, predict))

	hold.open()
	flaky.Revive()
	g.RefreshHealth(context.Background())
	after := predictRec(t, g, predict)
	if after.Code != http.StatusOK {
		t.Fatalf("predict after revival: %d: %s", after.Code, after.Body.Bytes())
	}
	var want, got server.PredictResponse
	if err := json.Unmarshal(before.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for c := range want.Result.Top {
		if got.Result.Top[c].Country != want.Result.Top[c].Country ||
			got.Result.Top[c].Share != want.Result.Top[c].Share {
			t.Fatalf("country %d after revival: %+v, was %+v", c, got.Result.Top[c], want.Result.Top[c])
		}
	}
	// The shard did not change while it was out, so that predict was
	// answered from the rows cached before; an upload is announced to
	// every shard, so it needs the stream back.
	if rec := serve(g, context.Background(), "/v1/ingest", uploadBody(t, "kill-2")); rec.Code != http.StatusOK {
		t.Fatalf("ingest after revival: %d: %s", rec.Code, rec.Body.Bytes())
	}
	if n := tp.streams[2].reconnects(); n < 1 {
		t.Fatalf("stream to the revived shard reports %d reconnects", n)
	}
}

// TestStreamTimeoutDropsLateReply is failure mode (b): a shard that
// takes a frame and sits on it costs that call ShardTimeout and a 503,
// not the stream; and when the reply finally arrives it goes nowhere —
// in particular not to whichever call is waiting by then.
func TestStreamTimeoutDropsLateReply(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	g := newSyncedGateway(t, []string{nodes[0].ts.URL, nodes[1].ts.URL, nodes[2].ts.URL}, func(c *GatewayConfig) {
		c.ShardTimeout = 150 * time.Millisecond
		c.FailThreshold = 1000
	})
	hold := holdIngest(t, nodes[2])

	start := time.Now()
	rec := serve(g, context.Background(), "/v1/ingest", uploadBody(t, "late-1"))
	wantShed(t, "ingest through a stalled shard", rec)
	if took := time.Since(start); took < 150*time.Millisecond || took > 2*time.Second {
		t.Fatalf("stalled leg answered after %s, want about the 150ms shard timeout", took)
	}

	// The late reply lands while the next calls are in flight.
	<-hold.entered
	hold.open()
	for i := 0; i < 20; i++ {
		pr := predictRec(t, g, server.PredictRequest{Tags: []string{"pop"}, Top: 3})
		if pr.Code != http.StatusOK {
			t.Fatalf("predict %d after a timed-out leg: %d: %s", i, pr.Code, pr.Body.Bytes())
		}
	}
	if rec := serve(g, context.Background(), "/v1/ingest", uploadBody(t, "late-2")); rec.Code != http.StatusOK {
		t.Fatalf("ingest after a timed-out leg: %d: %s", rec.Code, rec.Body.Bytes())
	}
	st := g.topo.Load().streams[2]
	if st.dials.Load() != 1 {
		t.Fatalf("a timed-out call cost the stream its connection (%d dials)", st.dials.Load())
	}
}

// TestStreamClientCancelIsNotAShardFailure is failure mode (c): a client
// that walks away mid-leg abandons its call, and the shard's health
// record does not pay for it.
func TestStreamClientCancelIsNotAShardFailure(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	g := newSyncedGateway(t, []string{nodes[0].ts.URL, nodes[1].ts.URL, nodes[2].ts.URL}, nil)
	hold := holdIngest(t, nodes[2])

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	body := uploadBody(t, "cancel-1")
	go func() { done <- serve(g, ctx, "/v1/ingest", body) }()
	<-hold.entered
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request still waiting on its leg")
	}
	tp := g.topo.Load()
	for i, s := range tp.shards {
		if n := s.fails.Load(); n != 0 {
			t.Fatalf("shard %d charged %d failures for a client cancel", i, n)
		}
	}
	// Nor does its leg histogram: only answered legs are samples.
	if n := tp.shards[2].legs[legIngest].Snapshot().Count; n != 0 {
		t.Fatalf("a cancelled leg was observed as %d latency samples", n)
	}
	hold.open()
	// One tag of each shard's, none resolved yet: one predict leg each.
	if pr := predictRec(t, g, server.PredictRequest{Tags: ownedTags(tp.ring, "cancel")}); pr.Code != http.StatusOK {
		t.Fatalf("predict after a cancelled leg: %d", pr.Code)
	}
	if n := tp.streams[2].dials.Load(); n != 1 {
		t.Fatalf("a cancelled call cost the stream its connection (%d dials)", n)
	}
	for i, s := range tp.shards {
		if n := s.legs[legPredict].Snapshot().Count; n != 1 {
			t.Fatalf("shard %d: one answered predict leg observed as %d samples", i, n)
		}
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`viewstags_shard_leg_duration_seconds_count{route="predict",shard="2"} 1`,
		`viewstags_shard_leg_duration_seconds_count{route="ingest",shard="2"} 0`,
		`viewstags_shard_stream_reconnects_total{shard="2"} 0`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}
}

// TestStreamShedPropagatesRetryAfter is failure mode (e): a frame that
// finds its shard at -max-inflight is shed by the shard's own limiter —
// the one in the handler chain, not a copy — and the gateway hands the
// shard's Retry-After to the client verbatim.
func TestStreamShedPropagatesRetryAfter(t *testing.T) {
	rg, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := startNodeWith(t, rg, 0, 1, func(c *server.Config) { c.MaxInFlight = 1 })
	g := newSyncedGateway(t, []string{n.ts.URL}, func(c *GatewayConfig) {
		// The gateway's own hint would be 7 s; the shard's limiter says 1.
		c.HealthInterval = 7 * time.Second
		c.FailThreshold = 1000
	})
	hold := holdIngest(t, n)
	done := make(chan *httptest.ResponseRecorder, 1)
	body := uploadBody(t, "shed-1")
	go func() { done <- serve(g, context.Background(), "/v1/ingest", body) }()
	<-hold.entered // the shard's one slot is taken

	rejected := n.srv.Metrics().Rejected.Load()
	rec := predictRec(t, g, server.PredictRequest{Tags: []string{"pop"}})
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("predict into a saturated shard: status %d Retry-After %q, want 503 with the shard's \"1\": %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.Bytes())
	}
	if got := n.srv.Metrics().Rejected.Load() - rejected; got != 1 {
		t.Fatalf("shard limiter rejected %d frames, want 1", got)
	}
	// The shed frame carried the JSON envelope, so the message is read out
	// of it rather than trimmed off a text/plain body.
	wantEnvelope(t, rec, "shard 0 shedding: server at capacity")
	if n := g.topo.Load().shards[0].fails.Load(); n != 0 {
		t.Fatalf("a shed frame counted as %d shard failures", n)
	}
	hold.open()
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("held ingest: %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// wantEnvelope checks a non-2xx answer is the documented error envelope:
// JSON, the message, and the request id the response headers carry.
func wantEnvelope(t *testing.T, rec *httptest.ResponseRecorder, msg string) {
	t.Helper()
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", rec.Body.Bytes(), err)
	}
	id := rec.Header().Get("X-Request-Id")
	if rec.Header().Get("Content-Type") != "application/json" || e.Error != msg || id == "" || e.RequestID != id {
		t.Fatalf("answered %d (%s) %+v with X-Request-Id %q; want application/json %q echoing the id",
			rec.Code, rec.Header().Get("Content-Type"), e, id, msg)
	}
}

// TestGatewayLimiterShedCarriesErrorEnvelope: the gateway's own limiter
// answers the documented envelope too, not text/plain.
func TestGatewayLimiterShedCarriesErrorEnvelope(t *testing.T) {
	rg, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := startNode(t, rg, 0, 1)
	g := newSyncedGateway(t, []string{n.ts.URL}, func(c *GatewayConfig) { c.MaxInFlight = 1 })
	hold := holdIngest(t, n)
	done := make(chan *httptest.ResponseRecorder, 1)
	body := uploadBody(t, "gw-shed-1")
	go func() { done <- serve(g, context.Background(), "/v1/ingest", body) }()
	<-hold.entered // the gateway's one slot is taken

	rec := predictRec(t, g, server.PredictRequest{Tags: []string{"pop"}})
	wantShed(t, "predict into a saturated gateway", rec)
	wantEnvelope(t, rec, "server at capacity")
	hold.open()
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("held ingest: %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// TestStreamUpgradeRefusedIsAFailedShard: there is no per-leg HTTP
// fallback. A target that answers /internal/meta but cannot upgrade
// fails its legs like any unreachable shard.
func TestStreamUpgradeRefusedIsAFailedShard(t *testing.T) {
	rg, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := newFakeShard(t, rg.Signature()) // serves /internal/meta only
	g := readinessGateway(t, shard.ts.URL)
	t.Cleanup(g.Close)
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantShed(t, "predict against a shard that cannot upgrade", predictRec(t, g, server.PredictRequest{Tags: []string{"pop"}}))
	s := g.topo.Load().shards[0]
	if n := s.fails.Load(); n != 1 {
		t.Fatalf("refused upgrade counted as %d failures, want 1", n)
	}
	if n := s.legs[legPredict].Snapshot().Count; n != 0 {
		t.Fatalf("a leg refused at the dial was observed as %d latency samples", n)
	}
}

// TestStreamOversizedBodyIsRefusedLocally: a body no frame can carry
// never reaches the wire. It is answered with the 400 the shard's body
// limit gives an over-long POST — a status, not a transport error — so
// the shard's health record and its stream are untouched.
func TestStreamOversizedBodyIsRefusedLocally(t *testing.T) {
	_, g := startCluster(t, 1)
	tp := g.topo.Load()
	rep := g.postShard(context.Background(), tp, 0, legIngest, make([]byte, server.MaxStreamFrame), "application/json", "rid-1")
	if rep.err != nil || rep.status != http.StatusBadRequest || errText(rep.body) == "" {
		t.Fatalf("oversized body: status %d err %v body %q, want a 400 with an error message", rep.status, rep.err, rep.body)
	}
	if n := tp.shards[0].fails.Load(); n != 0 {
		t.Fatalf("a locally refused envelope counted as %d shard failures", n)
	}
	if rec := predictRec(t, g, server.PredictRequest{Tags: []string{"pop"}}); rec.Code != http.StatusOK {
		t.Fatalf("predict after a refused envelope: %d", rec.Code)
	}
	if n := tp.streams[0].dials.Load(); n != 1 {
		t.Fatalf("a refused envelope cost the stream its connection (%d dials)", n)
	}
}

// TestStreamCloseFailsLaterCalls: a closed gateway's streams refuse
// work instead of silently redialling — a predict that needs a row it
// does not hold is the 503 with a hint, not a redial.
func TestStreamCloseFailsLaterCalls(t *testing.T) {
	_, g := startCluster(t, 3)
	rg := g.topo.Load().ring
	if rec := predictRec(t, g, server.PredictRequest{Tags: ownedTags(rg, "open")}); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d", rec.Code)
	}
	g.Close()
	wantShed(t, "predict for cold tags on a closed gateway", predictRec(t, g, server.PredictRequest{Tags: ownedTags(rg, "closed")}))
	for i, st := range g.topo.Load().streams {
		if n := st.dials.Load(); n != 1 {
			t.Fatalf("stream %d dialled %d times across a close", i, n)
		}
	}
}

// TestGatewayLargeReplyCarriesContentLength: a 32-item predict through
// the gateway (~5 KB of JSON) is sized up front like a node's — no
// chunked fallback at the edge.
func TestGatewayLargeReplyCarriesContentLength(t *testing.T) {
	res := fixture(t)
	_, g := startCluster(t, 3)
	gw := gatewayServer(t, g)
	names := res.Analysis.TagNames()
	var req server.PredictRequest
	for i := 0; i < 32; i++ {
		req.Batch = append(req.Batch, server.PredictItem{Tags: names[i*3 : i*3+3]})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gw.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(raw) <= 2048 {
		t.Fatalf("status %d, %d bytes — not the large reply this test needs", resp.StatusCode, len(raw))
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
		t.Fatalf("Transfer-Encoding %v, Content-Length %d for a %d-byte body", resp.TransferEncoding, resp.ContentLength, len(raw))
	}
}

// TestGatewayKeepAliveReusesConnections pins the data plane's
// connection discipline: however many predicts run at once, round after
// round, each shard carries them on exactly one long-lived stream. The
// shard counts accepted connections.
func TestGatewayKeepAliveReusesConnections(t *testing.T) {
	res := fixture(t)
	snap, err := profilestore.BuildOwned(res.Analysis, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.ShardIndex, cfg.ShardCount = 0, 1
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

	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	g := newSyncedGateway(t, []string{ts.URL}, nil)
	synced := conns.Load()

	const conc, rounds = 200, 2
	body := []byte(`{"tags":["pop"],"top":3}`)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hr := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				g.Handler().ServeHTTP(rec, hr)
				if rec.Code != http.StatusOK {
					t.Errorf("predict: %d", rec.Code)
				}
			}()
		}
		wg.Wait()
	}
	// Exactly one upgrade, on at most one new TCP connection (zero when
	// the transport reused the idle connection Sync left behind).
	if got := g.topo.Load().streams[0].dials.Load(); got != 1 {
		t.Fatalf("%d predicts dialled the shard's stream %d times, want exactly 1", conc*rounds, got)
	}
	if got := conns.Load() - synced; got > 1 {
		t.Fatalf("%d predicts opened %d connections to the shard, want at most 1", conc*rounds, got)
	}
}
