package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// These tests pin the fold-following row refresh (rowrefresh.go): that a
// pass lands what the next requests want, and each of its bounds — the
// idle drop, the restless-shard give-up, and every way a pass stops.

// heldRow looks a row up without marking it asked for, as get would.
func heldRow(c *rowCache, tag string) *tagRow {
	s := c.stripe(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[tag]
}

// refreshGateway is a one-shard gateway over a labelShard.
func refreshGateway(t *testing.T, maxBatch int, label func(f *fakeShard, items int) uint64) (*fakeShard, *Gateway) {
	t.Helper()
	rg, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := labelShard(t, rg.Signature(), label)
	g := newSyncedGateway(t, []string{shard.ts.URL}, func(c *GatewayConfig) {
		c.MaxBatch = maxBatch
		c.Logger = log.New(io.Discard, "", 0)
	})
	return shard, g
}

// steadyLabel labels every reply with the epoch the shard reports.
func steadyLabel(f *fakeShard, _ int) uint64 { return f.epoch.Load() }

// hold cached rows for the tags, one predict each.
func holdRows(t *testing.T, g *Gateway, tags ...string) {
	t.Helper()
	for _, tag := range tags {
		if code, _ := predictVia(t, g, server.PredictRequest{Tags: []string{tag}}); code != http.StatusOK {
			t.Fatalf("predict %q: %d", tag, code)
		}
	}
}

// observeFold moves the fake shard's epoch, has the gateway observe it
// and waits the refresh pass out.
func observeFold(f *fakeShard, g *Gateway) {
	f.epoch.Add(1)
	g.RefreshHealth(context.Background())
	g.WaitRowRefresh()
}

// TestRowRefreshAfterFoldMakesNoLeg is the point of the pass: once the
// gateway has observed every shard's fold and the passes have landed, the
// predicts that were warm before the fold are warm again — no leg — and
// equal a single node byte for byte; the counters say what it cost.
func TestRowRefreshAfterFoldMakesNoLeg(t *testing.T) {
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	single := startNode(t, ringOne, 0, 1)
	nodes, g := startCluster(t, 3)
	names := fixture(t).Analysis.TagNames()
	sets := [][]string{names[:12], append(ownedTags(g.topo.Load().ring, "refresh"), names[12:24]...), {names[3], names[30], names[3]}}
	sameAnswers(t, "before the fold", single.srv.Handler(), g.Handler(), sets)
	held := g.topo.Load().rows.n.Load()

	// Every held vocabulary tag's row changes on its shard, and n moves
	// everywhere; the gateway sees nothing until the health poll.
	foldBehind(t, g, single, nodes, "refresh-1", names[:24])
	g.RefreshHealth(context.Background())
	g.WaitRowRefresh()
	legs := g.predictLegs.Load()
	sameAnswers(t, "after the observed fold and the pass", single.srv.Handler(), g.Handler(), sets)
	if got := g.predictLegs.Load() - legs; got != 0 {
		t.Fatalf("predicts repeated after the pass landed cost %d legs, want none", got)
	}

	var stats struct {
		Cluster ClusterStats `json:"cluster"`
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	// One frame per shard, though sameAnswers asks under all three
	// weightings: a row serves every one.
	rc := stats.Cluster.RowCache
	if rc.RefreshRows != held || rc.RefreshLegs != 3 || rc.RefreshDropped != 0 || rc.Rows != held {
		t.Fatalf("row_cache after one fold of three shards holding %d rows: %+v", held, rc)
	}
	rec = httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		fmt.Sprintf("viewstags_row_cache_refresh_rows_total %d", held),
		`viewstags_row_cache_refresh_legs_total{shard="1"} 1`,
		"viewstags_row_cache_refresh_dropped_total 0",
		`viewstags_shard_leg_duration_seconds_count{route="refresh",shard="2"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestRowRefreshIncarnationStraddlePublishesNothing: a pass whose shard
// slot moves to a newer incarnation under its frame keeps nothing of the
// reply, which states the older one, and stops.
func TestRowRefreshIncarnationStraddlePublishesNothing(t *testing.T) {
	var bump atomic.Pointer[shardState]
	shard, g := refreshGateway(t, 1, func(f *fakeShard, _ int) uint64 {
		if s := bump.Load(); s != nil {
			s.observe(server.ShardVersion{Incarnation: f.inc.Load() + 1})
		}
		return f.epoch.Load()
	})
	holdRows(t, g, "a", "b")
	rows, s := g.topo.Load().rows, g.topo.Load().shards[0]
	a, b := heldRow(rows, "a"), heldRow(rows, "b")
	bump.Store(s)
	observeFold(shard, g)
	if legs := s.refreshLegs.Load(); legs != 1 {
		t.Fatalf("the pass sent %d frames, want it to stop at the first", legs)
	}
	if n := g.refreshedRows.Load(); n != 0 {
		t.Fatalf("%d rows published across an incarnation move", n)
	}
	if heldRow(rows, "a") != a || heldRow(rows, "b") != b {
		t.Fatal("a row read across an incarnation move replaced the one held")
	}
}

// TestRowRefreshRestlessShardBounded: a shard whose every reply carries a
// new epoch keeps making the pass's own rows stale; the pass follows
// maxEpochMoves times and gives up, and it is not a health failure. The
// rows are taken while the shard holds still: a reply that moved the
// epoch would start a pass racing its own request's rows, and the count
// would depend on which landed first.
func TestRowRefreshRestlessShardBounded(t *testing.T) {
	var restless atomic.Bool
	shard, g := refreshGateway(t, 1, func(f *fakeShard, items int) uint64 {
		if restless.Load() {
			return restlessLabel(f, items)
		}
		return steadyLabel(f, items)
	})
	holdRows(t, g, "a", "b")
	rows, s := g.topo.Load().rows, g.topo.Load().shards[0]
	if heldRow(rows, "a") == nil || heldRow(rows, "b") == nil || s.refreshLegs.Load() != 0 {
		t.Fatalf("a shard holding still: rows a %v, b %v held after %d refresh frames, want both and none", heldRow(rows, "a"), heldRow(rows, "b"), s.refreshLegs.Load())
	}
	restless.Store(true)
	// Two rows, one to a frame: the first round re-reads both, at two
	// epochs, and from there every round re-reads the older of the two and
	// its reply makes the other the older.
	observeFold(shard, g)
	if legs := s.refreshLegs.Load(); legs != 2+maxEpochMoves {
		t.Fatalf("the pass sent %d frames, want two and one for each of %d follow-ups", legs, maxEpochMoves)
	}
	if n := s.fails.Load(); n != 0 {
		t.Fatalf("a shard that answered every frame was charged %d failures", n)
	}
}

// TestRowRefreshDropsIdleRows: a row nobody asks for is carried through
// rowIdleRefreshes refreshes and dropped at the next; a row in use is
// re-read every time and stays warm.
func TestRowRefreshDropsIdleRows(t *testing.T) {
	shard, g := refreshGateway(t, 0, steadyLabel)
	holdRows(t, g, "hot", "idle", "hot")
	rows := g.topo.Load().rows
	legs := g.predictLegs.Load()
	for fold := 1; fold <= rowIdleRefreshes+1; fold++ {
		observeFold(shard, g)
		idle := heldRow(rows, "idle")
		if kept := fold <= rowIdleRefreshes; kept != (idle != nil) || kept && (idle.epoch != uint64(fold) || int(idle.idle) != fold) {
			t.Fatalf("after refresh %d the idle row is %+v", fold, idle)
		}
		holdRows(t, g, "hot")
		if hot := heldRow(rows, "hot"); hot == nil || hot.epoch != uint64(fold) || hot.idle != 0 {
			t.Fatalf("after refresh %d the row in use is %+v", fold, hot)
		}
	}
	if got := g.predictLegs.Load() - legs; got != 0 {
		t.Fatalf("the row in use cost %d legs across %d folds, want none", got, rowIdleRefreshes+1)
	}
	if n, held := g.refreshDropped.Load(), rows.n.Load(); n != 1 || held != 1 {
		t.Fatalf("dropped %d rows, %d held; want the idle one dropped and the hot one held", n, held)
	}
}

// TestRowRefreshReassignmentNeverCachesAbsent: at R = 2 a shard holds
// rows it answered while the tags' first owner was out. When that owner
// returns between two frames of a pass, the ring gives the tags back to
// it, and the pass must skip them: the gateway reads a tag only from the
// replica Ring.Assign names, the one a request would ask, and no shard
// second-guesses that choice.
func TestRowRefreshReassignmentNeverCachesAbsent(t *testing.T) {
	e := startEqTier(t, 2)
	tp := e.g.topo.Load()
	var tags []string // two vocabulary tags with one first and one second owner
	var first, second int
	for _, name := range fixture(t).Analysis.TagNames() {
		a := tp.ring.Assign(name, nil)
		b := tp.ring.Assign(name, []int{a})
		if len(tags) == 0 {
			first, second = a, b
		}
		if a == first && b == second {
			if tags = append(tags, name); len(tags) == 2 {
				break
			}
		}
	}
	if len(tags) < 2 {
		t.Fatal("no two vocabulary tags share both owners")
	}
	pool := [][]string{tags, {tags[1]}}
	e.kill(first, pool) // reads the pool through the death: rows from the second owner
	for _, tag := range tags {
		if r := heldRow(tp.rows, tag); r == nil || int(r.shard) != second || r.vec == nil {
			t.Fatalf("with shard %d down, %q is held as %+v, want shard %d's known row", first, tag, r, second)
		}
	}
	// The test plays the second owner's next pass itself, frame by frame,
	// so the observations below must not start a real one beside it.
	s := tp.shards[second]
	claim := func(v bool) {
		e.g.refreshMu.Lock()
		s.refreshing = v
		e.g.refreshMu.Unlock()
	}
	claim(true)
	// The second owner folds: the pass's first frame, with the first
	// owner still out, re-reads tags[0]...
	events := []server.IngestEvent{{Video: "reassign-1", Tags: tags[:1], Country: "KR", Views: 5000, Upload: true}}
	for _, h := range []http.Handler{e.g.Handler(), e.single.srv.Handler()} {
		if code := ingestOn(t, h, events); code != http.StatusOK {
			t.Fatalf("ingest: %d", code)
		}
	}
	if folded, err := e.nodes[second].comp.FoldNow(); err != nil || !folded {
		t.Fatalf("fold: %v %v", folded, err)
	}
	epoch := s.version().Epoch + 1
	if !e.g.refreshFrame(tp, second, []string{tags[0]}) {
		t.Fatal("first frame refused")
	}
	if r := heldRow(tp.rows, tags[0]); int(r.shard) != second || r.epoch != epoch || r.vec == nil {
		t.Fatalf("first frame published %+v", r)
	}
	// ...the first owner comes back and is caught up...
	e.revive()
	if err := e.g.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	// ...and the second frame finds tags[1] given back to it.
	old := heldRow(tp.rows, tags[1])
	if !e.g.refreshFrame(tp, second, []string{tags[1]}) {
		t.Fatal("second frame refused")
	}
	if r := heldRow(tp.rows, tags[1]); r != old {
		t.Fatalf("a tag the ring gave back to shard %d was re-read from shard %d as %+v", first, second, r)
	}
	claim(false)
	e.quiesce()
	e.g.WaitRowRefresh()
	e.same("after the reassignment", pool)
}

// TestRowRefreshStopsAtClose: Close returns only once the pass in flight
// has ended — its frame fails with the stream — and nothing starts a pass
// afterwards.
func TestRowRefreshStopsAtClose(t *testing.T) {
	inFrame, release := make(chan struct{}), make(chan struct{})
	var hold atomic.Bool
	shard, g := refreshGateway(t, 0, func(f *fakeShard, _ int) uint64 {
		if hold.CompareAndSwap(true, false) {
			close(inFrame)
			<-release
		}
		return f.epoch.Load()
	})
	defer close(release)
	holdRows(t, g, "a")
	hold.Store(true)
	shard.epoch.Add(1)
	g.RefreshHealth(context.Background())
	<-inFrame
	g.Close()
	running := func() int {
		g.refreshMu.Lock()
		defer g.refreshMu.Unlock()
		return g.refreshes
	}
	if n := running(); n != 0 {
		t.Fatalf("%d refresh passes running after Close", n)
	}
	tp := g.topo.Load()
	v := tp.shards[0].version()
	v.Epoch++
	g.markOK(tp, 0, v)
	if n := running(); n != 0 {
		t.Fatalf("an epoch move after Close started %d passes", n)
	}
}

// TestRowRefreshCutoverWaitsOneFrame: a pass takes the request gate per
// frame, so a reshard cutover (which takes it exclusively) waits for the
// one frame in flight and no more, and the pass ends when it finds the
// topology replaced.
func TestRowRefreshCutoverWaitsOneFrame(t *testing.T) {
	inFrame, release := make(chan struct{}), make(chan struct{})
	var hold atomic.Bool
	shard, g := refreshGateway(t, 1, func(f *fakeShard, _ int) uint64 {
		if hold.CompareAndSwap(true, false) {
			close(inFrame)
			<-release
		}
		return f.epoch.Load()
	})
	holdRows(t, g, "a", "b", "c", "d")
	hold.Store(true)
	shard.epoch.Add(1)
	g.RefreshHealth(context.Background())
	<-inFrame

	// The cutover, as Reshard makes it: close the gate, install a fresh
	// topology over the carried-over shard, open the gate.
	tp := g.topo.Load()
	cut := make(chan struct{})
	go func() {
		defer close(cut)
		g.gate.Lock()
		g.topo.Store(&topology{ring: tp.ring, targets: tp.targets, shards: tp.shards, streams: tp.streams, rows: newRowCache()})
		g.gate.Unlock()
	}()
	for g.gate.TryRLock() { // until the cutover is waiting on the gate
		g.gate.RUnlock()
		time.Sleep(time.Millisecond)
	}
	select {
	case <-cut:
		t.Fatal("the cutover did not wait for the frame in flight")
	default:
	}
	close(release)
	<-cut
	g.WaitRowRefresh()
	if legs := tp.shards[0].refreshLegs.Load(); legs != 1 {
		t.Fatalf("the pass sent %d frames around the cutover, want the one that was in flight", legs)
	}
}

// TestRowCachePutKeepsNewerRow: two reads of one tag from one shard may
// publish in either order; the later read (a newer incarnation, or a
// higher epoch under the same one) is the one held. A row from another
// shard always replaces: versions of different shards do not compare.
func TestRowCachePutKeepsNewerRow(t *testing.T) {
	for _, tc := range []struct {
		name       string
		older, new *tagRow
	}{
		{"epoch", &tagRow{shard: 1, inc: 3, epoch: 7}, &tagRow{shard: 1, inc: 3, epoch: 8}},
		{"incarnation", &tagRow{shard: 1, inc: 3, epoch: 9}, &tagRow{shard: 1, inc: 4, epoch: 2}},
	} {
		for _, order := range [][2]*tagRow{{tc.older, tc.new}, {tc.new, tc.older}} {
			c := newRowCache()
			c.put("t", order[0])
			c.put("t", order[1])
			if got := heldRow(c, "t"); got != tc.new {
				t.Errorf("%s, older put first=%v: holds %+v, want the later read", tc.name, order[0] == tc.older, got)
			}
			if n, bytes := c.n.Load(), c.stripe("t").bytes; n != 1 || bytes != rowCost("t", tc.new) {
				t.Errorf("%s: accounts %d rows, %d bytes for one row", tc.name, n, bytes)
			}
		}
	}
	c := newRowCache()
	other := &tagRow{shard: 2, inc: 0, epoch: 1}
	c.put("t", &tagRow{shard: 1, inc: 3, epoch: 7})
	c.put("t", other)
	if got := heldRow(c, "t"); got != other {
		t.Errorf("a row from another shard did not replace: holds %+v", got)
	}
}
