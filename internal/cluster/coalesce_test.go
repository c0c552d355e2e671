package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// newSyncedGateway wires and syncs a gateway over live shard targets
// with a config tweak applied — the wire/coalescing test harness.
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
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	var resp server.PredictResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode %q: %v", rec.Body.Bytes(), err)
		}
	}
	return rec.Code, resp
}

// TestGatewayWireEquivalence is the wire acceptance test: the same
// shards behind a plain gateway and a coalescing gateway answer
// float-identically (1e-9) to a single full node — the compact codec
// and the micro-batching are transport changes, never arithmetic ones.
func TestGatewayWireEquivalence(t *testing.T) {
	res := fixture(t)
	ringOne, err := NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := startNode(t, ringOne, 0, 1)
	nodes, _ := startCluster(t, 3)
	targets := make([]string, len(nodes))
	for i, n := range nodes {
		targets[i] = n.ts.URL
	}
	gateways := map[string]*Gateway{
		"binary": newSyncedGateway(t, targets, nil),
		"binary+coalesce": newSyncedGateway(t, targets, func(c *GatewayConfig) {
			c.CoalesceWindow = 200 * time.Microsecond
		}),
	}

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
			var want server.PredictResponse
			req := server.PredictRequest{Tags: tags, Weighting: weighting, Top: nC}
			if code := post(t, full.ts.URL+"/v1/predict", req, &want); code != http.StatusOK {
				t.Fatalf("single-node predict: %d", code)
			}
			wantShares := sharesOf(want.Result.Top)
			for name, g := range gateways {
				code, got := predictVia(t, g, req)
				if code != http.StatusOK {
					t.Fatalf("%s wire predict: %d", name, code)
				}
				if got.Result.Known != want.Result.Known {
					t.Fatalf("%s wire w=%s case %d: known %v vs %v", name, weighting, ci, got.Result.Known, want.Result.Known)
				}
				gotShares := sharesOf(got.Result.Top)
				if len(gotShares) != len(wantShares) {
					t.Fatalf("%s wire w=%s case %d: %d countries vs %d", name, weighting, ci, len(gotShares), len(wantShares))
				}
				for country, share := range wantShares {
					if math.Abs(gotShares[country]-share) > 1e-9 {
						t.Fatalf("%s wire w=%s case %d %s: %v, single %v", name, weighting, ci, country, gotShares[country], share)
					}
				}
			}
		}
	}

	// Batched requests join the coalescer's micro-batches too (each
	// waiter is an offset and a width).
	batchReq := server.PredictRequest{Top: 5}
	for _, tags := range cases {
		batchReq.Batch = append(batchReq.Batch, server.PredictItem{Tags: tags})
	}
	var want server.PredictResponse
	if code := post(t, full.ts.URL+"/v1/predict", batchReq, &want); code != http.StatusOK {
		t.Fatalf("single-node batch: %d", code)
	}
	for name, g := range gateways {
		code, got := predictVia(t, g, batchReq)
		if code != http.StatusOK || len(got.Results) != len(want.Results) {
			t.Fatalf("%s wire batch: code=%d %d results, want %d", name, code, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			ws, gs := sharesOf(want.Results[i].Top), sharesOf(got.Results[i].Top)
			for country, share := range ws {
				if math.Abs(gs[country]-share) > 1e-9 {
					t.Fatalf("%s wire batch item %d %s: %v, single %v", name, i, country, gs[country], share)
				}
			}
		}
	}
}

// TestInternalPredictContentNegotiation pins the shard-side codec
// contract: a binary-content-typed POST gets a binary reply (mirroring
// the request's CRC choice), any other content type is a 415, and a
// corrupt binary body is a 400 — both with the JSON error envelope, not
// a panic, not a hung connection.
func TestInternalPredictContentNegotiation(t *testing.T) {
	ringOne, err := NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := startNode(t, ringOne, 0, 1)
	items := [][]string{{"pop", "music"}, {"zz-nobody"}}

	for _, crc := range []bool{false, true} {
		frame := server.AppendPredictRequest(nil, items, tagviews.WeightIDF, crc)
		resp, err := http.Post(n.ts.URL+"/internal/predict", server.WireContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("crc=%v: status %d: %s", crc, resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != server.WireContentType {
			t.Fatalf("crc=%v: binary request answered with %q", crc, ct)
		}
		var pp server.PredictPartials
		if err := server.DecodePredictResponse(raw, &pp, 64, 1<<12); err != nil {
			t.Fatalf("crc=%v: undecodable binary reply: %v", crc, err)
		}
		if pp.NItems != len(items) {
			t.Fatalf("crc=%v: %d partials for %d items", crc, pp.NItems, len(items))
		}
		// The reply mirrors the request's integrity choice: flags bit 0
		// right after the 8-byte magic.
		if gotCRC := raw[8]&1 == 1; gotCRC != crc {
			t.Fatalf("request crc=%v answered with reply crc=%v", crc, gotCRC)
		}
		if pp.WSums[0] <= 0 || pp.WSums[1] != 0 {
			t.Fatalf("partials arithmetic: wsums %v (known tag must carry mass, unknown none)", pp.WSums[:2])
		}
	}

	// Anything else — here the JSON body the route once also took — is a
	// 415, and a corrupt binary frame a 400; both carry the JSON error
	// envelope.
	for _, tc := range []struct {
		name, contentType string
		body              []byte
		want              int
	}{
		{"JSON body", "application/json", []byte(`{"items":[["pop"]],"weighting":"idf"}`), http.StatusUnsupportedMediaType},
		{"corrupt frame", server.WireContentType, []byte("VTIPRQ01 garbage"), http.StatusBadRequest},
	} {
		resp, err := http.Post(n.ts.URL+"/internal/predict", tc.contentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		_ = resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if err != nil || e.Error == "" {
			t.Fatalf("%s: no JSON error envelope (%v, %q)", tc.name, err, e.Error)
		}
	}
}

// TestGatewayCoalesceSharesFanouts: concurrent singles released
// together land in one shared fan-out (the stats counters are the
// observable), and every waiter's answer equals the uncoalesced
// gateway's.
func TestGatewayCoalesceSharesFanouts(t *testing.T) {
	nodes, direct := startCluster(t, 3)
	targets := make([]string, len(nodes))
	for i, n := range nodes {
		targets[i] = n.ts.URL
	}
	g := newSyncedGateway(t, targets, func(c *GatewayConfig) { c.CoalesceWindow = 250 * time.Millisecond })

	const waiters = 8
	tagSets := [][]string{{"pop"}, {"favela", "samba"}, {"music", "pop"}, {"zz-unknown"}}
	want := make([]server.PredictResponse, len(tagSets))
	for i, tags := range tagSets {
		code, resp := predictVia(t, direct, server.PredictRequest{Tags: tags, Weighting: "idf", Top: 10})
		if code != http.StatusOK {
			t.Fatalf("direct predict: %d", code)
		}
		want[i] = resp
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]string, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			tags := tagSets[w%len(tagSets)]
			code, got := predictVia(t, g, server.PredictRequest{Tags: tags, Weighting: "idf", Top: 10})
			if code != http.StatusOK {
				errs[w] = "status not 200"
				return
			}
			ws, gs := sharesOf(want[w%len(tagSets)].Result.Top), sharesOf(got.Result.Top)
			for country, share := range ws {
				if math.Abs(gs[country]-share) > 1e-9 {
					errs[w] = "coalesced answer diverged from direct"
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Fatalf("waiter %d: %s", w, e)
		}
	}
	if got := g.coalesceRequests.Load(); got != waiters {
		t.Fatalf("coalesceRequests %d, want %d", got, waiters)
	}
	if batches := g.coalesceBatches.Load(); batches < 1 || batches > 2 {
		t.Fatalf("%d waiters released together ran %d fan-outs, want 1 (2 tolerated for scheduling skew)",
			waiters, g.coalesceBatches.Load())
	}
}

// TestGatewayCoalesceBatchCap: with the window effectively infinite,
// only the batch-full path flushes — 2×limit concurrent singles must
// run exactly two fan-outs of exactly limit items each, never one
// overfilled batch (the claim-under-append-lock regression).
func TestGatewayCoalesceBatchCap(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	targets := make([]string, len(nodes))
	for i, n := range nodes {
		targets[i] = n.ts.URL
	}
	const limit = 4
	g := newSyncedGateway(t, targets, func(c *GatewayConfig) {
		c.CoalesceWindow = time.Hour // the timer path must never fire
		c.MaxBatch = limit
	})

	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < 2*limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, resp := predictVia(t, g, server.PredictRequest{Tags: []string{"pop"}, Top: 3})
			if code != http.StatusOK || resp.Result == nil || !resp.Result.Known {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d of %d coalesced singles failed", failed.Load(), 2*limit)
	}
	if got := g.coalesceRequests.Load(); got != 2*limit {
		t.Fatalf("coalesceRequests %d, want %d", got, 2*limit)
	}
	if got := g.coalesceBatches.Load(); got != 2 {
		t.Fatalf("%d requests at cap %d ran %d fan-outs, want exactly 2 full batches", 2*limit, limit, got)
	}
}

// TestGatewayCoalesceByteBudget: individually-valid requests with fat
// tag payloads must not splice into one internal body past the shard's
// MaxBodyBytes — without the byte budget, 8 × ~650KB singles coalesce
// into a ~5MB frame, the shard's body reader errors, and every
// co-batched waiter 502s despite each request being fine alone.
func TestGatewayCoalesceByteBudget(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	targets := make([]string, len(nodes))
	for i, n := range nodes {
		targets[i] = n.ts.URL
	}
	g := newSyncedGateway(t, targets, func(c *GatewayConfig) { c.CoalesceWindow = 100 * time.Millisecond })

	fat := make([]string, 10)
	for i := range fat {
		fat[i] = string(bytes.Repeat([]byte{'a' + byte(i)}, 65000))
	}
	const waiters = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, resp := predictVia(t, g, server.PredictRequest{Tags: fat, Top: 3})
			// Unknown fat tags legitimately fall back to the prior —
			// the failure mode being pinned is a non-200.
			if code != http.StatusOK || resp.Result == nil {
				failed.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d of %d fat coalesced requests failed (merged body blew the shard limit?)", failed.Load(), waiters)
	}
	if batches := g.coalesceBatches.Load(); batches < 2 {
		t.Fatalf("%d fat requests shared %d fan-out(s): the byte budget never split them", waiters, batches)
	}
}

// TestGatewayCoalesceCanceledWaiter: a waiter whose context ends while
// the window is open gets an immediate 503, not a hang until the batch
// flushes.
func TestGatewayCoalesceCanceledWaiter(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	targets := make([]string, len(nodes))
	for i, n := range nodes {
		targets[i] = n.ts.URL
	}
	g := newSyncedGateway(t, targets, func(c *GatewayConfig) { c.CoalesceWindow = 2 * time.Second })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan coalesceReply, 1)
	go func() { done <- g.co.do(ctx, [][]string{{"pop"}}, tagviews.WeightIDF, "t-cancel") }()
	select {
	case rep := <-done:
		if rep.fe == nil || rep.fe.status != http.StatusServiceUnavailable {
			t.Fatalf("canceled waiter got %+v, want a 503 reply error", rep)
		}
	case <-time.After(time.Second):
		t.Fatal("canceled waiter blocked until the window flush")
	}
}

// takeOneRow hands takeRows a hand-built reply frame as shard 0's
// answer to a one-tag fetch, the way predictFanout's gather step does,
// and returns the request's row for that tag and what the topology's
// cache holds for it afterwards. inFlight, when non-nil, runs between
// the request reading its view of the shard and the reply arriving.
func takeOneRow(t *testing.T, g *Gateway, tag string, frame []byte, inFlight func(*shardState)) (fe *replyError, row, cached *tagRow) {
	t.Helper()
	tp := g.topo.Load()
	m := g.getMerged(1, 1, len(tp.shards))
	defer g.putMerged(m)
	m.view[0] = shardView{ok: true, gen: tp.shards[0].gen.Load()}
	m.misses = append(m.misses[:0], missTag{tag: tag})
	m.missIdx[tag] = 0
	m.want[0] = append(m.want[0][:0], 0)
	m.fetched = true
	if inFlight != nil {
		inFlight(tp.shards[0])
	}
	fe = g.takeRows(tp, m, shardReply{shard: 0, status: http.StatusOK, body: frame}, new(server.PredictPartials), tagviews.WeightIDF)
	return fe, m.misses[0].row, tp.rows.get(tag, tagviews.WeightIDF)
}

// TestMergeSkipsNaNWeightSum: the codec transits a NaN weight sum as an
// absent row, so the gateway must take it as one, exactly like the
// encoder's `> 0` predicate — a NaN combined into an item would poison
// it (1/NaN normalization, NaN shares, a 200 with an unencodable body).
func TestMergeSkipsNaNWeightSum(t *testing.T) {
	_, g := startCluster(t, 3)
	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	enc.Begin(tagviews.WeightIDF, 1, 0, len(g.codes), 1, false)
	enc.Item(math.NaN(), nil)
	fe, row, cached := takeOneRow(t, g, "zz-nan", enc.Finish(), nil)
	if fe != nil {
		t.Fatalf("NaN-weight frame rejected: %+v", fe)
	}
	if row == nil || row.vec != nil || row.ws != 0 {
		t.Fatalf("NaN weight sum taken as a present row: %+v", row)
	}
	if cached != row {
		t.Fatal("the absent row was not cached as a negative")
	}
	code, resp := predictVia(t, g, server.PredictRequest{Tags: []string{"zz-nan"}})
	if code != http.StatusOK || resp.Result.Known {
		t.Fatalf("predict over the absent row: %d known=%v, want the prior fallback", code, resp.Result.Known)
	}
}

// TestMergeJSONRejectsWrongWidth (the name predates the single wire): a
// shard reply frame whose country count differs from the gateway's
// country-table width must be a 502, not an out-of-range panic (too
// long) or a silently short row (too short) — and none of it may reach
// the request or the cache.
func TestMergeJSONRejectsWrongWidth(t *testing.T) {
	_, g := startCluster(t, 3)
	nC := len(g.codes)
	for _, width := range []int{nC + 7, nC - 1} {
		enc := server.GetPredictWireEncoder()
		enc.Begin(tagviews.WeightIDF, 1, 0, width, 1, false)
		sum := make([]float64, width)
		sum[0] = 1.5
		enc.Item(1.5, sum)
		fe, row, cached := takeOneRow(t, g, "zz-width", enc.Finish(), nil)
		server.PutPredictWireEncoder(enc)
		if fe == nil || fe.status != http.StatusBadGateway {
			t.Fatalf("width %d (table %d): %+v, want a 502 reply error", width, nC, fe)
		}
		if row != nil || cached != nil {
			t.Fatalf("width %d: rejected frame still produced a row (request %+v, cache %+v)", width, row, cached)
		}
	}
}

// TestPredictRejectsOversizedTag pins the uniform MaxTagLen contract:
// a tag too long for the binary wire's decoder is a 400 at every edge
// — gateway, single-node public, shard-internal frame — so no request
// one edge accepts can bounce off another's decoder mid-fan-out (under
// coalescing that bounce would fail every co-batched waiter).
func TestPredictRejectsOversizedTag(t *testing.T) {
	ringOne, err := NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := startNode(t, ringOne, 0, 1)
	_, g := startCluster(t, 3)
	long := string(make([]byte, server.MaxTagLen+1))

	if code, _ := predictVia(t, g, server.PredictRequest{Tags: []string{"pop", long}}); code != http.StatusBadRequest {
		t.Fatalf("gateway accepted an oversized tag: %d", code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := post(t, n.ts.URL+"/v1/predict", server.PredictRequest{Tags: []string{long}}, &e); code != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("public predict accepted an oversized tag: %d %q", code, e.Error)
	}
	frame := server.AppendPredictRequest(nil, [][]string{{long}}, tagviews.WeightIDF, false)
	resp, err := http.Post(n.ts.URL+"/internal/predict", server.WireContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("internal predict accepted an oversized tag: %d", resp.StatusCode)
	}
}

// TestGatewayKeepAliveReusesConnections pins the data plane's
// connection discipline: however many predicts run at once, round after
// round, each shard carries them on exactly one long-lived stream. The
// shard counts accepted connections.
func TestGatewayKeepAliveReusesConnections(t *testing.T) {
	res := fixture(t)
	ringOne, err := NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := profilestore.BuildOwned(res.Analysis, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.ShardIndex, cfg.ShardCount, cfg.RingSignature = 0, 1, ringOne.Signature()
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
