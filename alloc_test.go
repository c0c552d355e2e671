// Allocation-budget gates for the serving hot path. The perf work that
// made the fan-out tier fast is mostly *absence* — of JSON number text,
// of per-item vector copies, of per-request buffer churn — and absence
// regresses silently: one innocent-looking `append([]float64(nil),...)`
// in a handler and the GC is back on the profile. These tests pin the
// budgets with testing.AllocsPerRun so CI fails the moment the hot path
// starts allocating again (see ci.yml's allocation-regression step).
package viewstags_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// nullResponseWriter is the cheapest possible ResponseWriter: budget
// tests must count the handler's allocations, not the recorder's.
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// batchBody is a /v1/predict body of n items that take tags[:12] three
// at a time, in turn.
func batchBody(t *testing.T, tags []string, n int) []byte {
	t.Helper()
	req := server.PredictRequest{Weighting: "idf", Top: 3, Batch: make([]server.PredictItem, n)}
	for i := range req.Batch {
		j := 3 * (i % 4)
		req.Batch[i].Tags = tags[j : j+3]
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// predictAllocs is what one warm /v1/predict of body through h allocates.
func predictAllocs(w http.ResponseWriter, h http.Handler, body []byte) float64 {
	do := func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	}
	do()
	return testing.AllocsPerRun(100, do)
}

func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are pinned without the race detector's instrumentation")
	}
	res := testFixture(t)
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	tags := res.Analysis.TagNames()[:12]
	buf := make([]float64, res.World.N())

	// The prediction core: the contract the whole serving tier is built
	// on. Zero, not "a few": PredictInto runs thousands of times per
	// second per core and must never touch the heap.
	t.Run("PredictInto", func(t *testing.T) {
		allocs := testing.AllocsPerRun(200, func() {
			snap.PredictInto(buf, tags, tagviews.WeightIDF)
		})
		if allocs != 0 {
			t.Fatalf("PredictInto allocates %.1f/op, want 0", allocs)
		}
	})
	t.Run("PredictPartialInto", func(t *testing.T) {
		allocs := testing.AllocsPerRun(200, func() {
			snap.PredictPartialInto(buf, tags, tagviews.WeightIDF)
		})
		if allocs != 0 {
			t.Fatalf("PredictPartialInto allocates %.1f/op, want 0", allocs)
		}
	})

	// The binary codec at steady state (recycled buffers): encode and
	// decode must both be allocation-free, or the wire win leaks back
	// out through the GC.
	items := [][]string{tags[:4], tags[4:9], tags[9:12]}
	t.Run("WireEncode", func(t *testing.T) {
		enc := server.GetPredictWireEncoder()
		defer server.PutPredictWireEncoder(enc)
		reqBuf := server.AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		allocs := testing.AllocsPerRun(200, func() {
			reqBuf = server.AppendPredictRequest(reqBuf[:0], items, tagviews.WeightIDF, false)
			enc.Begin(tagviews.WeightIDF, snap.Records(), 7, len(buf), len(items), false)
			for range items {
				enc.Item(1.5, buf)
			}
			enc.Finish()
		})
		if allocs != 0 {
			t.Fatalf("steady-state wire encode allocates %.1f/op, want 0", allocs)
		}
	})
	t.Run("WireDecodeResponse", func(t *testing.T) {
		enc := server.GetPredictWireEncoder()
		defer server.PutPredictWireEncoder(enc)
		enc.Begin(tagviews.WeightIDF, snap.Records(), 7, len(buf), len(items), false)
		for range items {
			enc.Item(1.5, buf)
		}
		frame := enc.Finish()
		var pp server.PredictPartials
		if err := server.DecodePredictResponse(frame, &pp, 64, 1<<12); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := server.DecodePredictResponse(frame, &pp, 64, 1<<12); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state wire decode allocates %.1f/op, want 0", allocs)
		}
	})

	// The full handler stacks. These cannot be zero — the request's one
	// body string and tag backing array, the results and net/http's
	// header values are real — but they must stay bounded: the budgets
	// sit just over the measured counts, so a reflection decode, a
	// per-tag string, a per-item vector copy or an unpooled buffer coming
	// back blows straight through them.
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ingest.NewAccumulator(store, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableIngest(acc, time.Hour); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	runHandler := func(t *testing.T, path, contentType string, body []byte, budget float64) {
		t.Helper()
		w := &nullResponseWriter{h: make(http.Header)}
		do := func() {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			h.ServeHTTP(w, req)
		}
		do() // warm pools and lazy internals
		allocs := testing.AllocsPerRun(100, do)
		if allocs > budget {
			t.Fatalf("%s allocates %.1f/op, budget %.0f", path, allocs, budget)
		}
		t.Logf("%s: %.1f allocs/op (budget %.0f)", path, allocs, budget)
	}

	t.Run("InternalPredictBinary", func(t *testing.T) {
		body := server.AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		// Measured 38 (request plumbing + per-tag strings + trace echo;
		// span recording into the pooled trace adds zero — see the
		// SpanRecord gate); the budget trips if per-item response copies
		// come back.
		runHandler(t, "/internal/predict", server.WireContentType, body, 64)
	})
	t.Run("PredictSingleJSON", func(t *testing.T) {
		body := []byte(`{"tags":["` + tags[0] + `","` + tags[1] + `","` + tags[2] + `"],"weighting":"idf","top":3}`)
		// Measured 28 (44 before the edge codec took encoding/json off
		// this route): request plumbing, the body string, one tag backing
		// array, header values; the result is pooled.
		runHandler(t, "/v1/predict", "application/json", body, 34)
	})
	t.Run("PredictBatch4JSON", func(t *testing.T) {
		body, err := json.Marshal(server.PredictRequest{Weighting: "idf", Top: 3, Batch: []server.PredictItem{
			{Tags: tags[:3]}, {Tags: tags[3:6]}, {Tags: tags[6:9]}, {Tags: tags[9:12]}}})
		if err != nil {
			t.Fatal(err)
		}
		// Measured 29: the single call's count plus the batch slice.
		runHandler(t, "/v1/predict", "application/json", body, 35)
	})
	// A warm reply costs the same allocations at batch 4 and at batch 32:
	// what the decode allocates is per body, and the results, their top
	// lists and the top-k scratch are pooled with the predictions.
	t.Run("PredictFlatInBatchJSON", func(t *testing.T) {
		w := &nullResponseWriter{h: make(http.Header)}
		b4, b32 := predictAllocs(w, h, batchBody(t, tags, 4)), predictAllocs(w, h, batchBody(t, tags, 32))
		if b4 != b32 {
			t.Fatalf("node predict allocates %.1f/op at batch 4, %.1f/op at batch 32", b4, b32)
		}
		t.Logf("node predict: %.1f allocs/op at batch 4 and at batch 32", b4)
	})
	t.Run("Ingest4EventsJSON", func(t *testing.T) {
		events := make([]server.IngestEvent, 4)
		for i := range events {
			events[i] = server.IngestEvent{Video: "alloc-budget-video", Tags: tags[3*i : 3*i+3], Country: "BR", Views: float64(7 + i)}
		}
		body, err := json.Marshal(server.IngestRequest{Events: events})
		if err != nil {
			t.Fatal(err)
		}
		// Measured 28: the decode's three, the resolved events, and
		// the accumulator's own per-tag bookkeeping.
		runHandler(t, "/v1/ingest", "application/json", body, 34)
	})

	// One batch-4 frame through the shard side of the data-plane stream:
	// envelope decode, the pooled in-memory request and writer, the same
	// handler chain as above, one reply frame. AllocsPerRun counts every
	// goroutine, so this is the whole shard-side cost of a gateway leg.
	// The client below reuses its buffers and allocates nothing.
	t.Run("StreamFrameDispatch", func(t *testing.T) {
		ts := httptest.NewServer(h)
		defer ts.Close()
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		if _, err := io.WriteString(conn, "GET "+server.StreamPath+" HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: "+server.StreamProtocol+"\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("upgrade: %v %+v", err, resp)
		}
		items4 := [][]string{tags[:3], tags[3:6], tags[6:9], tags[9:12]}
		env := server.StreamRequest{Path: "/internal/predict", ContentType: server.WireContentType,
			RequestID: "alloc-budget-test", Body: server.AppendPredictRequest(nil, items4, tagviews.WeightIDF, false)}
		var frame, reply []byte
		var rep server.StreamReply
		do := func() {
			env.ID++
			if frame, err = server.AppendStreamRequest(frame[:0], &env); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			n, err := server.ReadStreamFrameLen(br)
			if err != nil {
				t.Fatal(err)
			}
			if cap(reply) < n {
				reply = make([]byte, n)
			}
			if _, err := io.ReadFull(br, reply[:n]); err != nil {
				t.Fatal(err)
			}
			if err := server.DecodeStreamReply(reply[:n], &rep); err != nil || rep.ID != env.ID || rep.Status != http.StatusOK {
				t.Fatalf("reply: %v id %d status %d", err, rep.ID, rep.Status)
			}
		}
		do()
		allocs := testing.AllocsPerRun(200, do)
		// The HTTP handler-stack budget (38 measured + the middleware's
		// 8): carrying the frame must not cost more than the handler it
		// carries it to.
		if allocs > 46 {
			t.Fatalf("stream frame dispatch allocates %.1f/op, budget 46", allocs)
		}
		t.Logf("stream frame dispatch: %.1f allocs/op (budget 46)", allocs)
	})

	// A whole batch-4 predict through Gateway.Handler() with three
	// in-process shards. Warm — every tag's row already held — it is the
	// edge codec, twelve cache lookups, the combine and the encode: no
	// leg, so none of the per-leg cost the stream carrier put at 140 (and
	// net/http per leg at 589). Cold — twelve tags never seen before — it
	// is the same plus up to three stream legs (each the dispatch above
	// plus the gateway's envelope, waiter and leg-latency observe) and the
	// rows it publishes: a row, its vector and its key apiece. That is the
	// price of the warm count, and this row keeps it in view.
	t.Run("GatewayPredictFanout", func(t *testing.T) {
		const shards = 3
		rg, err := ring.New(shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		targets := make([]string, shards)
		nodes := make([]*clusterNode, shards)
		for i := range targets {
			nodes[i] = startClusterNode(t, rg, i, shards, time.Hour)
			defer nodes[i].stop()
			targets[i] = nodes[i].ts.URL
		}
		cfg := cluster.DefaultGatewayConfig()
		cfg.Logger = log.New(io.Discard, "", 0)
		g, err := cluster.NewGateway(cfg, targets)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if err := g.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		batch4 := func(tags []string) []byte {
			body, err := json.Marshal(server.PredictRequest{Weighting: "idf", Top: 3, Batch: []server.PredictItem{
				{Tags: tags[:3]}, {Tags: tags[3:6]}, {Tags: tags[6:9]}, {Tags: tags[9:12]}}})
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		gh := g.Handler()
		w := &nullResponseWriter{h: make(http.Header)}
		body := batch4(tags)
		do := func() {
			gh.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		}
		do()
		allocs := testing.AllocsPerRun(200, do)
		// Measured 28 (140 when every predict made three legs).
		if allocs > 34 {
			t.Fatalf("warm gateway batch-4 predict allocates %.1f/op, budget 34", allocs)
		}
		t.Logf("warm gateway batch-4 predict over 3 shards: %.1f allocs/op (budget 34)", allocs)
		if b32 := predictAllocs(w, gh, batchBody(t, tags, 32)); b32 != allocs {
			t.Fatalf("warm gateway predict allocates %.1f/op at batch 4, %.1f/op at batch 32", allocs, b32)
		}

		// Cold: every run asks for twelve vocabulary tags no run before it
		// asked for.
		const coldRuns = 50
		names := res.Analysis.TagNames()[12:]
		if len(names) < 12*(coldRuns+1) {
			t.Fatalf("fixture vocabulary of %d tags is too small for %d cold runs", len(names), coldRuns)
		}
		bodies := make([][]byte, coldRuns+1) // AllocsPerRun warms up with one call
		for i := range bodies {
			bodies[i] = batch4(names[12*i : 12*i+12])
		}
		next := 0
		cold := func() {
			gh.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[next])))
			next++
		}
		allocs = testing.AllocsPerRun(coldRuns, cold)
		// Measured 127 (155 when every row kept cost three allocations): the
		// warm 28, three legs' worth of carrier and shard handler, a key per
		// row kept, and per frame one allocation for its rows and one for
		// their vectors.
		if allocs > 171 {
			t.Fatalf("cold gateway batch-4 predict allocates %.1f/op, budget 171", allocs)
		}
		t.Logf("cold gateway batch-4 predict over 3 shards: %.1f allocs/op (budget 171)", allocs)

		// The first request after an observed fold, once the refresh passes
		// have landed: every row it needs was re-read off the request path,
		// so it costs what the warm one does — no leg, no row, no key.
		// AllocsPerRun cannot put a fold between its runs, so each of these
		// is counted by hand, the same way.
		const folds = 5
		allocs = 0
		for i := 0; i < folds; i++ {
			upload := fmt.Sprintf(`{"events":[{"video":"alloc-fold-%d","tags":["zz-alloc"],"country":"US","views":1,"upload":true}]}`, i)
			rec := httptest.NewRecorder()
			gh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(upload)))
			if rec.Code != http.StatusOK {
				t.Fatalf("ingest: %d: %s", rec.Code, rec.Body)
			}
			for _, n := range nodes {
				n.settle()
			}
			g.RefreshHealth(context.Background())
			g.WaitRowRefresh()
			procs := runtime.GOMAXPROCS(1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			do()
			runtime.ReadMemStats(&after)
			runtime.GOMAXPROCS(procs)
			allocs += float64(after.Mallocs-before.Mallocs) / folds
		}
		if allocs > 34 {
			t.Fatalf("first gateway batch-4 predict after an observed fold allocates %.1f/op, warm budget 34", allocs)
		}
		t.Logf("first gateway batch-4 predict after an observed fold, pass landed: %.1f allocs/op (budget 34)", allocs)
	})

	// A standalone node over the benchmark's 20 000-video catalog. Its fold
	// is the store's fold: setting the catalog adds nothing to an install
	// (it used to add a 20 000-row prediction table, recomputed under the
	// install lock). And its advisory is computed per request in pooled
	// scratch: what a request allocates grows with the slots it asks for,
	// not with the catalog — a column of 20 000 float64s alone is 160 KB.
	t.Run("NodeFoldWithCatalog", func(t *testing.T) {
		snap, _ := nodeFixture(t)
		views := make([]float64, snap.World().N())
		views[0] = 1
		var deltas []profilestore.TagDelta
		for _, p := range snap.TopProfiles(100) {
			deltas = append(deltas, profilestore.TagDelta{Name: p.Name, Views: views, ID: p.ID})
		}
		fold := func(withCatalog bool) float64 {
			srv := nodeServer(t, withCatalog)
			return testing.AllocsPerRun(20, func() {
				if err := srv.ApplyDeltas(deltas, 0, tagviews.WeightIDF); err != nil {
					t.Fatal(err)
				}
			})
		}
		without, with := fold(false), fold(true)
		if with > without {
			t.Fatalf("a fold allocates %.0f/op with the catalog set, %.0f/op without: the install does per-catalog work again", with, without)
		}
		t.Logf("100-tag fold: %.0f allocs/op with the 20 000-video catalog set, %.0f without", with, without)
	})
	t.Run("NodePreload", func(t *testing.T) {
		h := nodeServer(t, true).Handler()
		w := &nullResponseWriter{h: make(http.Header)}
		for _, policy := range []string{"tag-push", "pop-push"} {
			perOp := func(slots int) (mallocs, size float64) {
				body := []byte(fmt.Sprintf(`{"country":"BR","policy":%q,"slots":%d}`, policy, slots))
				do := func() {
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/preload", bytes.NewReader(body)))
				}
				const runs = 20
				procs := runtime.GOMAXPROCS(1)
				defer runtime.GOMAXPROCS(procs)
				do() // fill this P's scratch pool
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					do()
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
			}
			// Measured at 64 slots: 39–40 allocations, 10–12 KB (request
			// plumbing, the selection's 64 entries, the ids, the reply).
			mallocs, size := perOp(64)
			if mallocs > 60 || size > 24<<10 {
				t.Errorf("%s, 64 slots: %.0f allocs and %.0f B per request, budget 60 and 24 KB: something sized by the catalog is allocated per request", policy, mallocs, size)
			}
			// 16 times the slots may cost 16 times the bytes, not a
			// catalog's worth more.
			_, size1k := perOp(1024)
			if size1k > 16*size {
				t.Errorf("%s: %.0f B at 1024 slots against %.0f B at 64: not O(slots)", policy, size1k, size)
			}
			t.Logf("/v1/preload %s: %.0f allocs/op and %.0f B/op at 64 slots, %.0f B/op at 1024", policy, mallocs, size, size1k)
		}
	})

	// The observe path itself: recording a latency into a route
	// histogram is a few atomic adds and must never allocate — it runs
	// inside every single request.
	t.Run("HistogramObserve", func(t *testing.T) {
		m := server.NewMetrics()
		var d time.Duration
		allocs := testing.AllocsPerRun(200, func() {
			m.Predict.Latency.Observe(d)
			d += 37 * time.Microsecond
		})
		if allocs != 0 {
			t.Fatalf("histogram Observe allocates %.1f/op, want 0", allocs)
		}
	})

	// Span recording: stage instrumentation runs inside every traced
	// request — decode, fanout legs, merge, encode — so Add must write
	// into the pooled trace's fixed array and never touch the heap.
	t.Run("SpanRecord", func(t *testing.T) {
		tr := obs.GetTrace(obs.NewRequestID(), "/bench", time.Now())
		defer obs.PutTrace(tr)
		start := time.Now()
		allocs := testing.AllocsPerRun(200, func() {
			tr.Add("bench", obs.NoShard, start, time.Microsecond, "")
		})
		if allocs != 0 {
			t.Fatalf("span record allocates %.1f/op, want 0", allocs)
		}
	})

	// The middleware stack around a no-op handler isolates the
	// per-request observability overhead (trace id echo, status
	// capture, histogram observe) from handler work. It cannot be zero
	// — the status-capturing writer and the response trace header are
	// real per-request state — but it must stay small and flat.
	t.Run("MetricsMiddleware", func(t *testing.T) {
		mw := server.NewMiddleware(16, server.NewMetrics(), log.New(io.Discard, "", 0), false)
		noop := server.Mount(mw, struct{}{}, []server.Route[struct{}]{{Path: "/v1/predict", Method: http.MethodPost,
			Group: server.GroupPredict, Handler: func(struct{}, http.ResponseWriter, *http.Request) {}}})
		w := &nullResponseWriter{h: make(http.Header)}
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		req.Header.Set("X-Request-Id", "alloc-budget-test")
		do := func() {
			for k := range w.h {
				delete(w.h, k)
			}
			noop.ServeHTTP(w, req)
		}
		do()
		allocs := testing.AllocsPerRun(100, do)
		// Measured ~4 (status writer, response header value, limiter
		// bookkeeping); the budget trips if the observe path or the
		// trace middleware starts allocating per request.
		if allocs > 8 {
			t.Fatalf("middleware stack allocates %.1f/op, budget 8", allocs)
		}
		t.Logf("middleware stack: %.1f allocs/op (budget 8)", allocs)
	})
}
