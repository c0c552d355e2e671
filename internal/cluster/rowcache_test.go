package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"viewstags/internal/faultproxy"
	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
	"viewstags/internal/xrand"
)

// These tests pin the row cache's validity rules — the clauses of
// usable (fanout.go) and the places the shard-slot generation advances —
// one by one, and then all together under a seeded schedule of
// everything that can change what a shard holds.

// ingestOn posts one /v1/ingest batch through a handler stack.
func ingestOn(t *testing.T, h http.Handler, events []server.IngestEvent) int {
	t.Helper()
	body, err := json.Marshal(server.IngestRequest{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(body))))
	return rec.Code
}

// sameAnswers asserts the gateway answers every tag list, under every
// weighting, as the single node does: the same /v1/predict reply body,
// byte for byte.
func sameAnswers(t *testing.T, what string, single, gateway http.Handler, tagSets [][]string) {
	t.Helper()
	for _, weighting := range []string{"uniform", "by-views", "idf"} {
		req := server.PredictRequest{Weighting: weighting, Top: 1 << 10}
		for _, tags := range tagSets {
			req.Batch = append(req.Batch, server.PredictItem{Tags: tags})
		}
		wc, want := predictBody(t, single, req)
		gc, got := predictBody(t, gateway, req)
		if wc != http.StatusOK || gc != http.StatusOK {
			t.Fatalf("%s w=%s: single node %d, gateway %d", what, weighting, wc, gc)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s w=%s %v: gateway answered\n%s\nsingle node\n%s", what, weighting, tagSets, got, want)
		}
	}
}

// regroupTol is the one float tolerance left in this package's tests.
// It covers folds that grouped the same batches differently on the two
// sides: a fold denormalizes a touched tag's stored vector by its total,
// adds the batch and divides again, so a shard that folded b1 and then
// b2 rounds differently from a node that folded b1+b2 at once. Where
// both sides folded the same batches in the same groups, the gates are
// byte equality.
const regroupTol = 1e-9

// sharesWithin is sameAnswers after a regrouping fold: the same known
// flags and countries, every share within regroupTol.
func sharesWithin(t *testing.T, what string, single, gateway http.Handler, tagSets [][]string) {
	t.Helper()
	for _, weighting := range []string{"uniform", "by-views", "idf"} {
		req := server.PredictRequest{Weighting: weighting, Top: 1 << 10}
		for _, tags := range tagSets {
			req.Batch = append(req.Batch, server.PredictItem{Tags: tags})
		}
		wc, want := predictOn(t, single, req)
		gc, got := predictOn(t, gateway, req)
		if wc != http.StatusOK || gc != http.StatusOK {
			t.Fatalf("%s w=%s: single node %d, gateway %d", what, weighting, wc, gc)
		}
		for i := range want.Results {
			if got.Results[i].Known != want.Results[i].Known {
				t.Fatalf("%s w=%s %v: known %v, single node %v", what, weighting, tagSets[i], got.Results[i].Known, want.Results[i].Known)
			}
			ws, gs := sharesOf(want.Results[i].Top), sharesOf(got.Results[i].Top)
			if len(ws) != len(gs) {
				t.Fatalf("%s w=%s %v: %d countries, single node %d", what, weighting, tagSets[i], len(gs), len(ws))
			}
			for country, share := range ws {
				if math.Abs(gs[country]-share) > regroupTol {
					t.Fatalf("%s w=%s %v %s: gateway %v, single node %v", what, weighting, tagSets[i], country, gs[country], share)
				}
			}
		}
	}
}

// shardLegs reads how many row-fetching frames each shard has answered:
// the predict legs requests paid for and the refresh passes' frames.
func shardLegs(g *Gateway) []uint64 {
	tp := g.topo.Load()
	legs := make([]uint64, len(tp.shards))
	for i, s := range tp.shards {
		legs[i] = s.legs[legPredict].Snapshot().Count + s.legs[legRefresh].Snapshot().Count
	}
	return legs
}

// sameShardTags returns n vocabulary tags the ring gives to one shard.
func sameShardTags(t *testing.T, ring *Ring, n int) (tags []string, shard int) {
	t.Helper()
	byShard := map[int][]string{}
	for _, name := range fixture(t).Analysis.TagNames() {
		s := ring.Owner(name)
		if byShard[s] = append(byShard[s], name); len(byShard[s]) == n {
			return byShard[s], s
		}
	}
	t.Fatalf("no shard owns %d vocabulary tags", n)
	return nil, 0
}

// TestRowCacheWarmRequestMakesNoLeg is the point of the cache and of
// its telemetry: the second identical predict is answered from rows,
// the counters say so on /metrics and in /v1/stats, and a cold one
// fetches each tag from its owner only.
func TestRowCacheWarmRequestMakesNoLeg(t *testing.T) {
	_, g := startCluster(t, 3)
	tags, shard := sameShardTags(t, g.topo.Load().ring, 3)
	req := server.PredictRequest{Tags: tags, Top: 3}
	code, cold := predictVia(t, g, req)
	if code != http.StatusOK {
		t.Fatalf("cold predict: %d", code)
	}
	for s, n := range shardLegs(g) {
		if want := uint64(0); s == shard && n != 1 || s != shard && n != want {
			t.Fatalf("cold predict for shard %d's tags cost shard %d %d legs", shard, s, n)
		}
	}
	code, warm := predictVia(t, g, req)
	if code != http.StatusOK || fmt.Sprint(warm) == "" {
		t.Fatalf("warm predict: %d", code)
	}
	for i := range cold.Result.Top {
		if cold.Result.Top[i] != warm.Result.Top[i] {
			t.Fatalf("warm answer %+v differs from the cold one %+v", warm.Result.Top, cold.Result.Top)
		}
	}
	if legs := g.predictLegs.Load(); legs != 1 {
		t.Fatalf("two predicts cost %d legs, want the cold one's 1", legs)
	}

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"viewstags_predict_legs_total 1",
		`viewstags_row_cache_lookups_total{result="hit"} 3`,
		`viewstags_row_cache_lookups_total{result="miss"} 3`,
		"viewstags_row_cache_rows 3",
		`viewstags_row_cache_invalidations_total{cause="epoch",shard="0"} 0`,
		`viewstags_row_cache_invalidations_total{cause="catchup",shard="2"} 0`,
	} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	var stats struct {
		Cluster ClusterStats `json:"cluster"`
	}
	rec = httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if c := stats.Cluster; c.PredictLegs != 1 || c.RowCache != (RowCacheStats{Hits: 3, Misses: 3, Rows: 3}) {
		t.Fatalf("/v1/stats cluster block: legs %d, row cache %+v", c.PredictLegs, c.RowCache)
	}
}

// TestRowCacheGenerationStraddleNotPublished: rows whose shard slot's
// generation moved while their fetch was in flight answer the request
// that fetched them and are not kept.
func TestRowCacheGenerationStraddleNotPublished(t *testing.T) {
	_, g := startCluster(t, 3)
	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	frame := func() []byte {
		enc.BeginRows(1, 0, len(g.codes), 1, false)
		vec := make([]float64, len(g.codes)) // a row: views 2, one video, stored vector
		vec[0] = 1
		enc.Row(2, 1, vec)
		return enc.Finish()
	}
	if fe, row, cached := takeOneRow(t, g, "zz-steady", frame(), nil); fe != nil || row == nil || cached != row {
		t.Fatalf("undisturbed fetch: fe=%+v row=%p cached=%p, want it published", fe, row, cached)
	}
	fe, row, cached := takeOneRow(t, g, "zz-straddle", frame(), func(s *shardState) { s.invalidate(invalDown) })
	if fe != nil || row == nil || row.views != 2 {
		t.Fatalf("straddling fetch did not answer its own request: fe=%+v row=%+v", fe, row)
	}
	if cached != nil {
		t.Fatal("a fetch that straddled a generation bump was published")
	}
	// And what was published under the old generation is dead.
	tp := g.topo.Load()
	view := []shardView{{ok: true, gen: tp.shards[0].gen.Load()}}
	if r := tp.rows.get("zz-steady"); r == nil || usable(view, r) {
		t.Fatalf("row %+v still usable after its shard's generation moved", r)
	}
}

// TestTagRowFitsACacheLine pins the row to one 64-byte cache line. A
// row carries its tag's views, videos and record count besides its shard
// state, and EXPERIMENTS.md "Row refresh" measured what one more line
// costs: an 80-byte row lost 0 of 4 gateway-read-b32 pairs, 6–7% slower,
// for batch 32 combines ≈340 rows a request.
func TestTagRowFitsACacheLine(t *testing.T) {
	if size := unsafe.Sizeof(tagRow{}); size > 64 {
		t.Fatalf("tagRow is %d bytes, want at most 64", size)
	}
}

// TestRowCacheValidityClauses walks usable's three clauses.
func TestRowCacheValidityClauses(t *testing.T) {
	r := &tagRow{shard: 1, gen: 4, epoch: 9}
	for _, tc := range []struct {
		name string
		view shardView
		want bool
	}{
		{"in rotation, same generation, same epoch", shardView{ok: true, gen: 4, epoch: 9}, true},
		{"out of read rotation", shardView{ok: false, gen: 4, epoch: 9}, false},
		{"generation moved", shardView{ok: true, gen: 5, epoch: 9}, false},
		{"epoch ahead of the row", shardView{ok: true, gen: 4, epoch: 10}, false},
		{"epoch behind the row", shardView{ok: true, gen: 4, epoch: 8}, false},
	} {
		view := []shardView{{ok: true, gen: 4, epoch: 9}, tc.view}
		if got := usable(view, r); got != tc.want {
			t.Errorf("%s: usable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// foldBehind ingests one upload carrying tags through the gateway and
// the single node alike, then folds every node — without telling the
// gateway, whose tracked epochs stay where the ingest acks left them.
func foldBehind(t *testing.T, g *Gateway, single *node, nodes []*node, video string, tags []string) {
	t.Helper()
	events := []server.IngestEvent{{Video: video, Tags: tags, Country: "KR", Views: 5000, Upload: true}}
	for _, h := range []http.Handler{g.Handler(), single.srv.Handler()} {
		if code := ingestOn(t, h, events); code != http.StatusOK {
			t.Fatalf("ingest %s: %d", video, code)
		}
	}
	for _, n := range append([]*node{single}, nodes...) {
		if _, err := n.comp.FoldNow(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowCacheEpochMoveInvalidatesThatShardOnly: when the gateway
// observes one shard's epoch advance, that shard's rows are fetched
// again and no other shard's are.
func TestRowCacheEpochMoveInvalidatesThatShardOnly(t *testing.T) {
	nodes, g := startCluster(t, 3)
	ring := g.topo.Load().ring
	req := server.PredictRequest{Tags: append(ownedTags(ring, "epoch"), fixture(t).Analysis.TagNames()[:20]...)}
	if code, _ := predictVia(t, g, req); code != http.StatusOK {
		t.Fatalf("predict: %d", code)
	}
	before := shardLegs(g)

	// Shard 0 alone folds: a bare upload announcement moves its n.
	if code := announce(t, nodes[0].ts.URL, "only-0"); code != http.StatusOK {
		t.Fatalf("shard ingest: %d", code)
	}
	if folded, err := nodes[0].comp.FoldNow(); err != nil || !folded {
		t.Fatalf("fold: %v %v", folded, err)
	}
	if code, _ := predictVia(t, g, req); code != http.StatusOK {
		t.Fatalf("predict: %d", code)
	}
	if after := shardLegs(g); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("legs %v → %v before the gateway observed the fold: nothing should have been fetched", before, after)
	}
	// Whether the request or the refresh pass the observation starts gets
	// to them first, shard 0's rows are read again over one frame. Waiting
	// the pass out makes it the pass.
	g.RefreshHealth(context.Background())
	g.WaitRowRefresh()
	if code, _ := predictVia(t, g, req); code != http.StatusOK {
		t.Fatalf("predict: %d", code)
	}
	after := shardLegs(g)
	if after[0] != before[0]+1 || after[1] != before[1] || after[2] != before[2] {
		t.Fatalf("legs %v → %v after shard 0's epoch moved, want one more to shard 0 only", before, after)
	}
	tp := g.topo.Load()
	for i, s := range tp.shards {
		want := int64(0)
		if i == 0 {
			want = 1
		}
		if n := s.invalidations[invalEpoch].Load(); n != want {
			t.Errorf("shard %d counted %d epoch invalidations, want %d", i, n, want)
		}
	}
}

// TestPredictNeverMixesEpochsOfOneShard: a request holding a cached row
// of a shard at epoch E, whose fetch of another tag from that shard
// comes back labelled E+1, must not combine the two — n enters every
// IDF weight — so it fetches the first again. The fold sits exactly
// between the request's hit and its fetch.
func TestPredictNeverMixesEpochsOfOneShard(t *testing.T) {
	ringOne, err := NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := startNode(t, ringOne, 0, 1)
	nodes, g := startCluster(t, 3)
	tags, shard := sameShardTags(t, g.topo.Load().ring, 2)
	a, b := tags[0], tags[1]

	if code, _ := predictVia(t, g, server.PredictRequest{Tags: []string{a}, Weighting: "idf"}); code != http.StatusOK {
		t.Fatalf("predict: %d", code)
	}
	// The fold changes a's row (views, document frequency and n) on the
	// shard; the gateway still holds the shard at the epoch of the ack.
	foldBehind(t, g, single, nodes, "mix-1", []string{a})
	legs := shardLegs(g)[shard]
	sameAnswers(t, "a cached at E, b fetched at E+1", single.srv.Handler(), g.Handler(), [][]string{{a, b}, {b, a}})
	if got := shardLegs(g)[shard] - legs; got < 2 {
		t.Fatalf("the request cost shard %d %d legs: it must fetch b, see the epoch move, and fetch a again", shard, got)
	}
	if n := g.topo.Load().shards[shard].epoch.Load(); n != 1 {
		t.Fatalf("the reply's epoch was not recorded: shard %d tracked at %d", shard, n)
	}
}

// TestPredictReflectsObservedEpoch is the freshness contract: once
// /healthz reports epoch E, a predict reflects every shard's folds up
// to E — for the tags the gateway holds rows for as much as for the
// ones it does not.
func TestPredictReflectsObservedEpoch(t *testing.T) {
	ringOne, err := NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := startNode(t, ringOne, 0, 1)
	nodes, g := startCluster(t, 3)
	ring := g.topo.Load().ring
	held := append(ownedTags(ring, "held"), fixture(t).Analysis.TagNames()[:12]...)
	fresh := fixture(t).Analysis.TagNames()[12:24]
	sameAnswers(t, "before any fold", single.srv.Handler(), g.Handler(), [][]string{held})

	for round := 1; round <= 3; round++ {
		// Every held tag changes, on every shard, behind the gateway's back.
		foldBehind(t, g, single, nodes, fmt.Sprintf("fresh-%d", round), held)
		g.RefreshHealth(context.Background())
		var health struct {
			Epoch uint64 `json:"epoch"`
		}
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil || health.Epoch != uint64(round) {
			t.Fatalf("healthz after fold %d: %s (%v)", round, rec.Body.Bytes(), err)
		}
		sameAnswers(t, fmt.Sprintf("after /healthz reported epoch %d", round), single.srv.Handler(), g.Handler(),
			[][]string{held, fresh, {held[0], fresh[0], held[1]}})
	}
}

// TestPredictSplitsMissesAcrossFrames: more distinct missing tags for
// one shard than a frame may carry are fetched over several frames, not
// refused — the cold batch of long tag lists.
func TestPredictSplitsMissesAcrossFrames(t *testing.T) {
	ringOne, err := NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := startNode(t, ringOne, 0, 1)
	nodes, _ := startCluster(t, 3)
	g := newSyncedGateway(t, []string{nodes[0].ts.URL, nodes[1].ts.URL, nodes[2].ts.URL}, func(c *GatewayConfig) { c.MaxBatch = 4 })
	tags, shard := sameShardTags(t, g.topo.Load().ring, 10)
	sameAnswers(t, "ten cold tags of one shard, four to a frame", single.srv.Handler(), g.Handler(), [][]string{tags[:5], tags[5:]})
	// sameAnswers asks under three weightings, and only the first is cold:
	// the rows it fetched serve the other two. ⌈10/4⌉ frames.
	if got := shardLegs(g)[shard]; got != 3 {
		t.Fatalf("shard %d answered %d frames, want 3", shard, got)
	}
}

// labelShard is a fake shard that serves the data-plane stream by hand:
// it answers /internal/meta like newFakeShard (reporting f.epoch) and
// every /internal/predict frame with one known row per item, labelled
// with the epoch label returns for that frame. label runs on the
// stream's goroutine before the reply is written, so it can also hold a
// frame in flight or change gateway state under it.
func labelShard(t *testing.T, sig string, label func(f *fakeShard, items int) uint64) *fakeShard {
	t.Helper()
	f := &fakeShard{sig: sig}
	mux := http.NewServeMux()
	mux.HandleFunc("/internal/meta", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(server.InternalMetaResponse{Shards: 1, RingSignature: sig,
			Countries: []string{"US", "JP"}, Prior: []float64{0.6, 0.4}, Epoch: f.epoch.Load(), Ready: true})
	})
	mux.HandleFunc(server.StreamPath, func(w http.ResponseWriter, r *http.Request) {
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer func() { _ = conn.Close() }()
		_, _ = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+server.StreamProtocol+"\r\n\r\n")
		enc := new(server.PredictWireEncoder)
		var env server.StreamRequest
		for {
			n, err := server.ReadStreamFrameLen(brw.Reader)
			if err != nil {
				return
			}
			frame := make([]byte, n)
			if _, err := io.ReadFull(brw.Reader, frame); err != nil || server.DecodeStreamRequest(frame, &env) != nil {
				return
			}
			items, _, _, err := server.DecodePredictRequest(env.Body)
			if err != nil {
				t.Error(err)
				return
			}
			enc.BeginRows(10, label(f, len(items)), 2, len(items), false)
			for range items {
				enc.Row(1, 1, []float64{0.5, 0.5})
			}
			out, err := server.AppendStreamReply(nil, &server.StreamReply{ID: env.ID, Status: http.StatusOK, Body: enc.Finish()})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// restlessLabel labels every reply with an epoch one past the last.
func restlessLabel(f *fakeShard, _ int) uint64 { return f.epoch.Add(1) }

// TestPredictGivesUpOnRestlessShard: the re-fetch rounds are bounded. A
// shard whose every reply carries a new epoch can never give one request
// two rows of the same epoch, and the request ends in a retryable 503
// after maxEpochMoves tries instead of looping.
func TestPredictGivesUpOnRestlessShard(t *testing.T) {
	_, g := refreshGateway(t, 1, restlessLabel) // one tag to a frame: two tags take two rounds
	if code, resp := predictVia(t, g, server.PredictRequest{Tags: []string{"a"}}); code != http.StatusOK || !resp.Result.Known {
		t.Fatalf("one tag, one reply, one epoch: %d %+v", code, resp.Result)
	}
	before := g.predictLegs.Load()
	rec := predictRec(t, g, server.PredictRequest{Tags: []string{"b", "c"}})
	wantShed(t, "two rows of a shard that never holds still", rec)
	// Each frame moved the view once; the frame after the last allowed
	// move is the one that gave up. (The request's own frames: the shard
	// also answers the refresh passes those moves start.)
	if frames := g.predictLegs.Load() - before; frames != maxEpochMoves+1 {
		t.Fatalf("gave up after %d frames, want %d", frames, maxEpochMoves+1)
	}
	if n := g.topo.Load().shards[0].fails.Load(); n != 0 {
		t.Fatalf("a shard that answered every frame was charged %d failures", n)
	}
}

// TestRowCacheBoundUnderScan: a scan of distinct tags cannot grow the
// cache past its bound, the accounting matches what the maps hold, and
// the rows that keep being asked for survive the scan.
func TestRowCacheBoundUnderScan(t *testing.T) {
	const nC, stripeBudget = 60, 16 << 10
	c := newRowCache()
	c.budget = stripeBudget
	row := func() *tagRow { return &tagRow{views: 1, vec: make([]float64, nC)} }
	hot := make([]string, 200)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%d", i)
		c.put(hot[i], row())
	}
	perRow := rowOverhead + len("scan-000000") + 8*nC
	scan := 4 * rowCacheStripes * stripeBudget / perRow // four times what fits
	for i := 0; i < scan; i++ {
		c.put(fmt.Sprintf("scan-%06d", i), row())
		if i%50 == 0 {
			for _, tag := range hot {
				c.get(tag)
			}
		}
	}
	var rows, bytes int
	for i := range c.stripes {
		s := &c.stripes[i]
		sum := 0
		for k, r := range s.m {
			sum += rowCost(k, r)
		}
		if sum != s.bytes {
			t.Fatalf("stripe %d accounts %d bytes, holds %d", i, s.bytes, sum)
		}
		if s.bytes > stripeBudget {
			t.Fatalf("stripe %d holds %d bytes over a %d budget", i, s.bytes, stripeBudget)
		}
		rows += len(s.m)
		bytes += s.bytes
	}
	if int64(rows) != c.n.Load() {
		t.Fatalf("row gauge %d, maps hold %d", c.n.Load(), rows)
	}
	if bytes < rowCacheStripes*stripeBudget/2 {
		t.Fatalf("only %d bytes held after a scan four times the bound: eviction overshoots", bytes)
	}
	kept := 0
	for _, tag := range hot {
		if c.get(tag) != nil {
			kept++
		}
	}
	if kept < len(hot)*9/10 {
		t.Fatalf("%d of %d rows in steady use survived a scan of %d others", kept, len(hot), scan)
	}
}

// TestRowCacheDoesNotPinRequestBody is TestIngestDoesNotPinRequestBody's
// twin: the edge decoder's tags are substrings of the request body, the
// cache keeps one row per novel tag, and sixteen 1 MB bodies with one
// novel tag each must not stay on the heap behind sixteen short keys —
// nor behind the pooled per-request scratch.
func TestRowCacheDoesNotPinRequestBody(t *testing.T) {
	_, g := startCluster(t, 3)
	h := g.Handler()
	predictOne := func(i, pad int) {
		t.Helper()
		body := fmt.Sprintf(`{"tags":[%s"pin-row-%d","pop"],"top":3}`, strings.Repeat(" ", pad), i)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	predictOne(-1, 0) // warm up: streams dialled, pools filled
	const n, pad = 16, 1 << 20
	before := heap()
	for i := 0; i < n; i++ {
		predictOne(i, pad)
	}
	// Nor may the last request's tags ride the pooled per-request scratch
	// into the next request (the GC in heap() empties the pool, so look
	// at what the request just put there).
	m := g.mergedPool.Get().(*mergedPredict)
	for _, ms := range m.misses[:cap(m.misses)] {
		if ms.tag != "" || ms.row != nil {
			t.Fatalf("pooled scratch still holds the miss %+v", ms)
		}
	}
	for _, tag := range m.oneTag[:cap(m.oneTag)] {
		if tag != "" {
			t.Fatalf("pooled scratch still holds the fetched tag %q", tag)
		}
	}
	if len(m.missIdx) != 0 {
		t.Fatalf("pooled scratch still indexes %d tags", len(m.missIdx))
	}
	g.mergedPool.Put(m)
	if grew := heap() - before; grew > n*pad/4 {
		t.Errorf("heap grew %d bytes over %d 1 MB predicts with one novel tag each: something keeps the bodies", grew, n)
	}
	if rows := g.topo.Load().rows.n.Load(); rows != n+2 {
		t.Fatalf("cache holds %d rows, want the %d novel tags' plus the warm-up's two", rows, n)
	}
	if g.metrics.Predict.DecodeGeneral.Load() != 0 {
		t.Fatal("a body took the general decode; this test is about the fast one's substrings")
	}
}

// eqTier is the in-process tier the seeded equivalence test drives: a
// single node fed every accepted batch, and shard nodes — each behind a
// fault proxy, each wired for transfers — behind a gateway.
type eqTier struct {
	t        *testing.T
	replicas int
	single   *node
	nodes    []*node
	proxies  []*faultproxy.Proxy
	g        *Gateway
	down     int // the shard cut off, -1 when none
	// foldedBehind: since the last quiesce some shard folded a batch
	// behind the gateway's back. A batch accepted after that lands in
	// another fold there than on the single node, and from then on the
	// two sides' folds have grouped batches differently: regrouped.
	foldedBehind, regrouped bool
}

// startTierNode is startNode for a tier that gets caught up and
// resharded: R-way ownership, topology hooks, a synchronous fold hook.
func startTierNode(t *testing.T, index, count, replicas int) *node {
	t.Helper()
	ring, err := NewRingReplicas(count, 0, replicas)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := profilestore.BuildOwned(fixture(t).Analysis, func(name string) bool { return ring.Owns(name, index) })
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.ShardIndex, cfg.ShardCount, cfg.Replicas = index, count, replicas
	cfg.RingSignature = ring.Signature()
	cfg.Topology = ring
	cfg.MakeTopology = func(shards, replicas int) (server.ShardTopology, error) {
		return NewRingReplicas(shards, 0, replicas)
	}
	cfg.Logger = log.New(io.Discard, "", 0)
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
	srv.SetFoldHook(comp.FoldNow)
	n := &node{srv: srv, acc: acc, comp: comp, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(n.ts.Close)
	return n
}

func (e *eqTier) addNode(index, count int) string {
	n := startTierNode(e.t, index, count, e.replicas)
	p := newFlakyShard(e.t, n.ts.URL)
	e.nodes, e.proxies = append(e.nodes, n), append(e.proxies, p)
	return p.URL()
}

func startEqTier(t *testing.T, replicas int) *eqTier {
	t.Helper()
	ringOne, err := NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &eqTier{t: t, replicas: replicas, single: startNode(t, ringOne, 0, 1), down: -1}
	targets := make([]string, 3)
	for i := range targets {
		targets[i] = e.addNode(i, 3)
	}
	e.g = newSyncedGateway(t, targets, func(c *GatewayConfig) {
		c.Replicas = replicas
		c.FailThreshold = 2
		c.Logger = log.New(io.Discard, "", 0)
	})
	return e
}

// quiesce folds everything everywhere, repairs what is repairable, and
// has the gateway observe the result — the state in which it must equal
// the single node.
func (e *eqTier) quiesce() {
	e.t.Helper()
	ctx := context.Background()
	if e.down >= 0 && e.replicas == 1 {
		e.revive() // an unreplicated tier sheds every predict while a shard is out
	}
	for _, n := range append([]*node{e.single}, e.nodes...) {
		if _, err := n.comp.FoldNow(); err != nil {
			e.t.Fatal(err)
		}
	}
	e.foldedBehind = false
	e.g.RefreshHealth(ctx)
	if err := e.g.CatchUp(ctx); err != nil {
		e.t.Fatalf("catch-up: %v", err)
	}
	e.g.RefreshHealth(ctx)
}

// kill cuts a shard off and lets the detector see it. On a replicated
// tier the death is also read through: the quiesced answers must hold
// while the gateway has not noticed (cached rows, then failover for the
// rest) and after it has.
func (e *eqTier) kill(shard int, pool [][]string) {
	e.t.Helper()
	if e.replicas > 1 {
		e.quiesce()
		e.same("before the kill", pool)
	}
	e.proxies[shard].Kill()
	e.down = shard
	if e.replicas > 1 {
		e.same("shard dead, not yet marked down", pool)
	}
	for !e.g.topo.Load().shards[shard].down.Load() {
		e.g.RefreshHealth(context.Background())
	}
	if e.replicas > 1 {
		e.same("shard marked down", pool)
	}
}

// same asserts the tier answers as the single node: sameAnswers while
// both sides folded the same groups, sharesWithin once they did not.
func (e *eqTier) same(what string, tagSets [][]string) {
	e.t.Helper()
	if e.regrouped {
		sharesWithin(e.t, what, e.single.srv.Handler(), e.g.Handler(), tagSets)
	} else {
		sameAnswers(e.t, what, e.single.srv.Handler(), e.g.Handler(), tagSets)
	}
}

func (e *eqTier) revive() {
	e.proxies[e.down].Revive()
	e.down = -1
	e.g.RefreshHealth(context.Background())
}

// TestRowCacheEquivalenceSeeded is the proof the cache's validity rules
// rest on: under a seeded interleaving of everything that can change
// what a shard holds or whether it may be read — gateway ingests, single
// shards folding behind the gateway's back, health observations, a shard
// dying, coming back and being caught up, a 3 → 4 reshard — with
// repeat-heavy predicts in between filling the cache, the gateway equals
// a single node fed the same accepted batches — byte for byte until a
// shard folds behind the gateway's back, to regroupTol after — whenever it has
// observed a quiesced tier, for tags it holds rows for and tags it has
// never seen alike.
func TestRowCacheEquivalenceSeeded(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for _, replicas := range []int{1, 2} {
		for seed := 1; seed <= seeds; seed++ {
			replicas, seed := replicas, seed
			t.Run(fmt.Sprintf("R%d/seed%d", replicas, seed), func(t *testing.T) {
				t.Parallel()
				runEquivalence(t, replicas, uint64(1000*replicas+seed))
			})
		}
	}
}

func runEquivalence(t *testing.T, replicas int, seed uint64) {
	src := xrand.NewSource(seed)
	e := startEqTier(t, replicas)
	names := fixture(t).Analysis.TagNames()
	live := []string{"zz-eq-a", "zz-eq-b", "zz-eq-c", "zz-eq-d", "zz-eq-e", names[0], names[1], names[2]}
	// The pool predicts repeat from: vocabulary tags, tags the ingests
	// touch, tags nobody knows, a duplicate, and one long list.
	pool := [][]string{
		{names[0], names[1]}, {names[2]}, {names[3], names[0], names[4]}, {names[5], "zz-eq-a"},
		{"zz-eq-a", "zz-eq-b"}, {"zz-eq-c"}, {"zz-eq-d", names[1], "zz-eq-e"}, {"zz-nobody", names[2]},
		{"zz-nobody-2"}, {names[0], names[0], "zz-eq-a"}, names[6:30],
	}
	pick := xrand.NewZipf(src.Fork("pool"), 1.1, len(pool))
	weightings := []string{"uniform", "by-views", "idf"}
	countries := []string{"JP", "US", "BR", "DE", "KR"}
	check := func(what string) {
		t.Helper()
		e.quiesce()
		// One list nobody has asked for yet rides along with every check.
		novel := []string{fmt.Sprintf("zz-novel-%d", src.Intn(1<<30)), names[30+src.Intn(200)], "zz-eq-b"}
		e.same(what, append(pool[:len(pool):len(pool)], novel))
	}

	const steps = 70
	resharded := false
	for step := 0; step < steps; step++ {
		what := fmt.Sprintf("seed %d step %d", seed, step)
		if step == steps*2/3 && !resharded {
			// Grow 3 → 4 on a healthy, caught-up tier.
			if e.down >= 0 {
				e.revive()
			}
			check(what + " before the reshard")
			tp := e.g.topo.Load()
			grown := append(append([]string(nil), tp.targets...), e.addNode(3, 4))
			if err := e.g.Reshard(context.Background(), grown, nil); err != nil {
				t.Fatalf("%s: reshard: %v", what, err)
			}
			resharded = true
			check(what + " after the reshard")
			continue
		}
		switch p := src.Float64(); {
		case p < 0.50: // a repeat-heavy predict, single or small batch
			req := server.PredictRequest{Weighting: weightings[src.Intn(3)], Top: 3}
			if n := src.Intn(3); n == 0 {
				req.Tags = pool[pick.Rank()]
			} else {
				for i := 0; i <= n; i++ {
					req.Batch = append(req.Batch, server.PredictItem{Tags: pool[pick.Rank()]})
				}
			}
			code, _ := predictOn(t, e.g.Handler(), req)
			if shed := e.down >= 0 && replicas == 1; code != http.StatusOK && !(shed && code == http.StatusServiceUnavailable) {
				t.Fatalf("%s: predict %d (shard down: %d)", what, code, e.down)
			}
		case p < 0.68: // an ingest batch through the gateway; the single node gets what it accepted
			var events []server.IngestEvent
			for i, n := 0, 1+src.Intn(3); i < n; i++ {
				ev := server.IngestEvent{Video: fmt.Sprintf("eq-%d-%d", seed, src.Intn(40)), Country: countries[src.Intn(len(countries))],
					Views: float64(1 + src.Intn(500)), Upload: src.Bernoulli(0.5)}
				for _, j := range src.Perm(len(live))[:1+src.Intn(3)] {
					ev.Tags = append(ev.Tags, live[j])
				}
				events = append(events, ev)
			}
			switch code := ingestOn(t, e.g.Handler(), events); {
			case code == http.StatusOK:
				if code := ingestOn(t, e.single.srv.Handler(), events); code != http.StatusOK {
					t.Fatalf("%s: single node refused what the gateway accepted: %d", what, code)
				}
				e.regrouped = e.regrouped || e.foldedBehind
			case code == http.StatusServiceUnavailable && e.down >= 0 && replicas == 1:
				// Shed before anything was dispatched: nothing to mirror.
			default:
				t.Fatalf("%s: ingest %d (shard down: %d)", what, code, e.down)
			}
		case p < 0.80: // one shard folds behind the gateway's back
			folded, err := e.nodes[src.Intn(len(e.nodes))].comp.FoldNow()
			if err != nil {
				t.Fatal(err)
			}
			e.foldedBehind = e.foldedBehind || folded
		case p < 0.86: // the gateway observes, nothing quiesced
			e.g.RefreshHealth(context.Background())
		case p < 0.92:
			if e.down < 0 {
				e.kill(src.Intn(len(e.nodes)), pool)
			} else {
				e.revive()
			}
		default:
			check(what)
		}
	}
	check(fmt.Sprintf("seed %d at the end", seed))
	if hits := e.g.rowHits.Load(); hits == 0 {
		t.Fatal("no predict was ever answered from a cached row: the schedule proved nothing about the cache")
	}
}
