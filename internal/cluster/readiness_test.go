package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// fakeShard is a scriptable /internal/meta endpoint: enough surface for
// the gateway's Sync and health loop, with a mutable version (incarnation
// and epoch) / readiness / reachability, and a /v1/tags that sheds.
type fakeShard struct {
	sig   string
	inc   atomic.Uint64
	epoch atomic.Uint64
	ready atomic.Bool
	fail  atomic.Bool
	// as, when set, is the meta answered instead: another daemon serving
	// at this URL.
	as atomic.Pointer[server.InternalMetaResponse]
	ts *httptest.Server
}

func newFakeShard(t *testing.T, sig string) *fakeShard {
	return newFakeShardAt(t, sig, 0, 1, 0)
}

// newFakeShardAt scripts one member of a (possibly replicated) tier:
// it identifies as shard index of shards placing replicas copies.
func newFakeShardAt(t *testing.T, sig string, index, shards, replicas int) *fakeShard {
	t.Helper()
	f := newFake(sig)
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/internal/meta", func(w http.ResponseWriter, r *http.Request) {
		if f.fail.Load() {
			// Kill the connection: a transport failure, not a protocol
			// answer, which is what counts toward down-marking.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("recorder not hijackable")
				return
			}
			conn, _, _ := hj.Hijack()
			_ = conn.Close()
			return
		}
		if as := f.as.Load(); as != nil {
			_ = json.NewEncoder(w).Encode(as)
			return
		}
		_ = json.NewEncoder(w).Encode(server.InternalMetaResponse{
			Index:         index,
			Shards:        shards,
			Replicas:      replicas,
			RingSignature: f.sig,
			Countries:     []string{"US", "JP"},
			Prior:         []float64{0.6, 0.4},
			Tags:          5,
			Version:       f.version(f.epoch.Load()),
			IngestEnabled: true,
			Ready:         f.ready.Load(),
		})
	})
	mux.HandleFunc("/v1/tags", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		server.WriteError(w, http.StatusServiceUnavailable, "shedding")
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// newFake is a fake shard's state, in its first incarnation.
func newFake(sig string) *fakeShard {
	f := &fakeShard{sig: sig}
	f.inc.Store(1)
	return f
}

// version is what the fake states in its current incarnation at epoch.
func (f *fakeShard) version(epoch uint64) server.ShardVersion {
	return server.ShardVersion{Incarnation: f.inc.Load(), Epoch: epoch, Records: 10}
}

func readinessGateway(t *testing.T, target string) *Gateway {
	t.Helper()
	cfg := DefaultGatewayConfig()
	cfg.FailThreshold = 2
	cfg.Logger = log.New(io.Discard, "", 0)
	g, err := NewGateway(cfg, []string{target})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGatewayRejoinAtRecoveredEpoch pins the crash-recovery rejoin
// contract: a shard that goes down and comes back under a new
// incarnation, reporting a LOWER epoch (it recovered from its last
// checkpoint), must have the gateway's tracked epoch follow it down — the
// min-epoch fold horizon must not overstate what the recovered shard has
// folded — while under one incarnation the epoch never moves back.
func TestGatewayRejoinAtRecoveredEpoch(t *testing.T) {
	rg, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := newFakeShard(t, rg.Signature())
	shard.epoch.Store(10)
	g := readinessGateway(t, shard.ts.URL)
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e := g.topo.Load().minEpoch(); e != 10 {
		t.Fatalf("epoch after sync = %d, want 10", e)
	}

	// Crash: two failed probes mark it down.
	shard.fail.Store(true)
	g.RefreshHealth(context.Background())
	g.RefreshHealth(context.Background())
	if cs := g.clusterStats(g.topo.Load()); cs.Healthy != 0 {
		t.Fatalf("shard still healthy after %d failed probes", 2)
	}

	// Recovery: a new process rejoins at epoch 3 (checkpoint + replay).
	dead := shard.inc.Load()
	shard.fail.Store(false)
	shard.inc.Add(1)
	shard.epoch.Store(3)
	g.RefreshHealth(context.Background())
	cs := g.clusterStats(g.topo.Load())
	if cs.Healthy != 1 {
		t.Fatal("shard did not revive on a successful probe")
	}
	if e := g.topo.Load().minEpoch(); e != 3 {
		t.Fatalf("epoch after rejoin = %d, want the recovered 3, not the stale 10", e)
	}

	// Steady state still refuses regressions (stale concurrent reads)
	// under one incarnation, and a late reply from the dead one moves
	// nothing, whatever epoch it states.
	g.markOK(g.topo.Load(), 0, shard.version(7))
	g.markOK(g.topo.Load(), 0, shard.version(5))
	g.markOK(g.topo.Load(), 0, server.ShardVersion{Incarnation: dead, Epoch: 12})
	if e := g.topo.Load().minEpoch(); e != 7 {
		t.Fatalf("steady-state epoch moved to %d, want 7", e)
	}
	if n := g.topo.Load().shards[0].incarnationMoves.Load(); n != 1 {
		t.Fatalf("%d incarnation moves counted, want the restart's one", n)
	}
}

// TestHealthAdmitsOnlyWhatSyncAdmits pins the one admission rule: a down
// target whose URL then answers as another shard, or as the right shard
// over another prior, stays down however often it is polled, every poll
// logs why, and Sync over the same tier refuses it for the same reason.
// The daemon coming back as itself is revived.
func TestHealthAdmitsOnlyWhatSyncAdmits(t *testing.T) {
	rg, err := ring.New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rg4, err := ring.New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*fakeShard, 3)
	targets := make([]string, 3)
	for i := range shards {
		shards[i] = newFakeShardAt(t, rg.Signature(), i, 3, 0)
		targets[i] = shards[i].ts.URL
	}
	var logs bytes.Buffer
	cfg := DefaultGatewayConfig()
	cfg.FailThreshold = 2
	cfg.Logger = log.New(&logs, "", 0)
	g, err := NewGateway(cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	if err := g.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	countries := []string{"US", "JP"}
	for _, c := range []struct {
		name   string
		meta   server.InternalMetaResponse
		reason string
	}{
		{"another shard", server.InternalMetaResponse{Index: 2, Shards: 4, RingSignature: rg4.Signature(),
			Countries: countries, Prior: []float64{0.6, 0.4}, Ready: true}, "identifies as shard 2 of 4, want 1 of 3"},
		{"another prior", server.InternalMetaResponse{Index: 1, Shards: 3, RingSignature: rg.Signature(),
			Countries: countries, Prior: []float64{0.5, 0.5}, Ready: true}, "disagrees on the country table or prior"},
	} {
		shards[1].fail.Store(true)
		g.RefreshHealth(ctx)
		g.RefreshHealth(ctx)
		if !g.topo.Load().shards[1].down.Load() {
			t.Fatalf("%s: shard 1 not marked down after its threshold of failed polls", c.name)
		}
		shards[1].fail.Store(false)
		shards[1].as.Store(&c.meta)
		for poll := 1; poll <= 5; poll++ {
			logs.Reset()
			g.RefreshHealth(ctx)
			if !g.topo.Load().shards[1].down.Load() {
				t.Fatalf("%s: poll %d revived a shard Sync refuses", c.name, poll)
			}
			if !strings.Contains(logs.String(), c.reason) {
				t.Fatalf("%s: poll %d logged %q, want the reason %q", c.name, poll, logs.String(), c.reason)
			}
		}
		if err := g.Sync(ctx); err == nil || !strings.Contains(err.Error(), c.reason) {
			t.Fatalf("%s: Sync over the same tier: %v, want a refusal naming %q", c.name, err, c.reason)
		}
		shards[1].as.Store(nil)
		g.RefreshHealth(ctx)
		if g.topo.Load().shards[1].down.Load() {
			t.Fatalf("%s: the right daemon back at the URL was not revived", c.name)
		}
	}
}

// TestGatewayTreatsUnreadyShardAsDown pins the readiness split at the
// cluster edge: a shard that answers but is still recovering counts as
// failing, the gateway's /readyz goes 503 while any shard is out, and
// both recover once the shard is ready again.
func TestGatewayTreatsUnreadyShardAsDown(t *testing.T) {
	rg, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := newFakeShard(t, rg.Signature())
	g := readinessGateway(t, shard.ts.URL)
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	readyCode := func() int {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	healthCode := func() int {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code
	}
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz with all shards up: %d, want 200", code)
	}

	shard.ready.Store(false)
	g.RefreshHealth(context.Background())
	g.RefreshHealth(context.Background())
	if cs := g.clusterStats(g.topo.Load()); cs.Healthy != 0 {
		t.Fatal("unready shard still counted healthy after threshold probes")
	}
	if code := readyCode(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a recovering shard: %d, want 503", code)
	}
	if code := healthCode(); code != http.StatusOK {
		t.Fatalf("/healthz must stay 200 (liveness) while degraded, got %d", code)
	}

	shard.ready.Store(true)
	g.RefreshHealth(context.Background())
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz after shard recovery: %d, want 200", code)
	}
}

// TestGatewayReplicatedReadiness pins the per-slice readiness
// criterion: at R=2, losing ONE replica of a covered slice must keep
// /readyz at 200 (the survivors serve every slice), losing a whole
// replica pair flips it to 503, and a revived-but-still-syncing
// replica counts as out of rotation but does not break readiness as
// long as the slice stays covered.
func TestGatewayReplicatedReadiness(t *testing.T) {
	const n, r = 3, 2
	rg, err := ring.New(n, r)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*fakeShard, n)
	targets := make([]string, n)
	for i := range shards {
		shards[i] = newFakeShardAt(t, rg.Signature(), i, n, r)
		targets[i] = shards[i].ts.URL
	}
	cfg := DefaultGatewayConfig()
	cfg.FailThreshold = 2
	cfg.Replicas = r
	cfg.Logger = log.New(io.Discard, "", 0)
	g, err := NewGateway(cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	readyCode := func() int {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz with all shards up: %d, want 200", code)
	}
	if cs := g.clusterStats(g.topo.Load()); cs.Replicas != r {
		t.Fatalf("cluster stats report replicas %d, want %d", cs.Replicas, r)
	}

	// One replica down: every slice still has a live copy, so the
	// gateway must stay ready — this is the whole point of R=2.
	shards[2].fail.Store(true)
	g.RefreshHealth(context.Background())
	g.RefreshHealth(context.Background())
	cs := g.clusterStats(g.topo.Load())
	if cs.Healthy != n-1 {
		t.Fatalf("healthy = %d after killing one shard, want %d", cs.Healthy, n-1)
	}
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz with one of %d replicas down: %d, want 200 (slices still covered)", r, code)
	}

	// Second shard down: the slice whose replica pair is {1, 2} has no
	// live copy left — coverage is lost and readiness must say so.
	shards[1].fail.Store(true)
	g.RefreshHealth(context.Background())
	g.RefreshHealth(context.Background())
	if code := readyCode(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a whole replica pair down: %d, want 503", code)
	}

	// Revival at R>1 enters read rotation only after catch-up: both
	// shards come back syncing, so coverage is still lost.
	shards[1].fail.Store(false)
	shards[2].fail.Store(false)
	g.RefreshHealth(context.Background())
	tp := g.topo.Load()
	if !tp.shards[1].syncing.Load() || !tp.shards[2].syncing.Load() {
		t.Fatal("revived replicas must be marked syncing at R>1")
	}
	if code := readyCode(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with revived-but-syncing replica pair: %d, want 503", code)
	}
	stats := g.clusterStats(tp)
	if !stats.Shards[1].Syncing || !stats.Shards[2].Syncing {
		t.Fatal("cluster stats must surface the syncing flag")
	}

	// Catch-up done (simulated): back in rotation, ready again.
	tp.shards[1].syncing.Store(false)
	tp.shards[2].syncing.Store(false)
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz after catch-up: %d, want 200", code)
	}
}

// TestSyncRefusesReplicaMismatch pins the replica-factor handshake: a
// gateway placing R=2 must refuse a shard that places a different
// factor even when everything else matches — a silent mismatch would
// double-count or drop slices.
func TestSyncRefusesReplicaMismatch(t *testing.T) {
	rg, err := ring.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*fakeShard, 2)
	targets := make([]string, 2)
	for i := range shards {
		// Shards report replicas=1 against a gateway placing 2.
		shards[i] = newFakeShardAt(t, rg.Signature(), i, 2, 1)
		targets[i] = shards[i].ts.URL
	}
	cfg := DefaultGatewayConfig()
	cfg.Replicas = 2
	cfg.Logger = log.New(io.Discard, "", 0)
	g, err := NewGateway(cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(context.Background()); err == nil {
		t.Fatal("Sync accepted a replica-factor mismatch")
	}
}

// TestSyncRefusesUnreadyShard pins startup ordering: the gateway's
// sync-with-retry loop must not come up over a shard that is still
// replaying its journal.
func TestSyncRefusesUnreadyShard(t *testing.T) {
	rg, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := newFakeShard(t, rg.Signature())
	shard.ready.Store(false)
	g := readinessGateway(t, shard.ts.URL)
	if err := g.Sync(context.Background()); err == nil {
		t.Fatal("Sync accepted an unready shard")
	}
	shard.ready.Store(true)
	if err := g.Sync(context.Background()); err != nil {
		t.Fatalf("Sync after recovery: %v", err)
	}
}
