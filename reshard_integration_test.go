// Live resharding integration tests at repository scope: a 3-shard R=2
// tier grows to 4 shards, and a 3-shard R=1 tier shrinks to 2, while
// concurrent reads hammer the gateway. The handoff contract under test:
// zero failed requests during the move (the request barrier stalls
// them, it never drops them), post-handoff predictions equal to a
// single full node's byte for byte (slices moved exactly once, nothing
// double-counted), the new ring visible in /v1/stats with
// the handoff record, and writes landing correctly on the reshaped tier
// afterwards. A reshard that fails mid-way keeps the old tier serving.
package viewstags_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/server"
)

const reshardFoldEvery = 15 * time.Millisecond

// startReshardTier is a tier whose gateway polls only when fold asks it
// to, so no health pass lands between a test's steps.
func startReshardTier(t *testing.T, shards, replicas int) *tier {
	t.Helper()
	return startReshardTierFolding(t, shards, replicas, reshardFoldEvery)
}

// startReshardTierFolding is startReshardTier with every node folding
// every foldEvery.
func startReshardTierFolding(t *testing.T, shards, replicas int, foldEvery time.Duration) *tier {
	t.Helper()
	rt := newTier(t, shards, replicas, foldEvery)
	rt.opts.Gateway.HealthInterval = time.Hour
	rt.RestartGateway(t, rt.urls())
	return rt
}

// readDuring runs move while one client keeps predicting "pop" through
// the gateway, and returns the reads it issued and how many failed. The
// request barrier makes a reshard invisible: requests stall briefly and
// then succeed — a failure is a dropped request.
func (rt *tier) readDuring(move func()) (reads, readErrs int64) {
	stop := make(chan struct{})
	var n, errs atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf struct {
				Result *struct {
					Known bool `json:"known"`
				} `json:"result"`
			}
			req, _ := json.Marshal(server.PredictRequest{Tags: []string{"pop"}, Top: 3})
			resp, err := rt.client.Post(rt.gw.URL+"/v1/predict", "application/json", bytes.NewReader(req))
			n.Add(1)
			if err != nil {
				errs.Add(1)
				continue
			}
			if err := json.NewDecoder(resp.Body).Decode(&buf); err != nil ||
				resp.StatusCode != http.StatusOK || buf.Result == nil || !buf.Result.Known {
				errs.Add(1)
			}
			_ = resp.Body.Close()
		}
	}()
	move()
	close(stop)
	wg.Wait()
	return n.Load(), errs.Load()
}

// reshardStats is the /v1/stats cluster block the reshard tests read.
type reshardStats struct {
	Cluster struct {
		Replicas int `json:"replicas"`
		Healthy  int `json:"healthy"`
		Shards   []struct {
			Index int `json:"index"`
		} `json:"shards"`
		Handoff *struct {
			Epoch uint64 `json:"epoch"`
			Phase string `json:"phase"`
			From  int    `json:"from_shards"`
			To    int    `json:"to_shards"`
		} `json:"handoff"`
	} `json:"cluster"`
}

func (rt *tier) stats(t *testing.T) reshardStats {
	t.Helper()
	var stats reshardStats
	if code := getJSON(t, rt.client, rt.gw.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", code)
	}
	return stats
}

// wantHandoff checks the handoff record /v1/stats carries.
func (s reshardStats) wantHandoff(t *testing.T, epoch uint64, from, to int) {
	t.Helper()
	if h := s.Cluster.Handoff; h == nil || h.Epoch != epoch || h.Phase != "idle" || h.From != from || h.To != to {
		t.Fatalf("handoff %+v, want epoch=%d phase=idle from=%d to=%d", s.Cluster.Handoff, epoch, from, to)
	}
}

func TestLiveReshardGrowEndToEnd(t *testing.T) {
	res := testFixture(t)
	const before, after, replicas = 3, 4, 2
	rt := startReshardTier(t, before, replicas)

	// Seed a live stream into both tiers so the reshard has folded
	// post-boot state to move, not just the synthetic base.
	const rounds = 20
	tags := []string{"zz-rs-a", "zz-rs-b", "zz-rs-c"}
	rt.ingest(t, rounds,
		server.IngestEvent{Video: "rs", Tags: tags, Country: "JP", Views: 60, Upload: true},
		server.IngestEvent{Video: "rs", Tags: tags, Country: "FR", Views: 40})
	rt.fold()
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-rs-a", "pop"})

	// Boot the incoming shard with its grown identity: shard 3 of 4
	// over the same dataset. It builds its base slice itself; the
	// reshard transfer brings it everything folded since boot.
	grown := append(rt.urls(), rt.addNode(t, 3, after, replicas).ts.URL)

	var rr cluster.ReshardResponse
	var code int
	reads, readErrs := rt.readDuring(func() {
		code = postJSON(t, rt.client, rt.gw.URL+"/v1/reshard", cluster.ReshardRequest{Targets: grown}, &rr)
	})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/reshard: status %d (%+v)", code, rr)
	}
	if readErrs != 0 {
		t.Fatalf("%d of %d concurrent reads failed during the reshard, want 0", readErrs, reads)
	}
	if reads == 0 {
		t.Fatal("read load goroutine never issued a request — the test proved nothing")
	}
	if rr.Shards != after || rr.Replicas != replicas || rr.HandoffEpoch != 1 {
		t.Fatalf("reshard ack %+v, want shards=%d replicas=%d handoff_epoch=1", rr, after, replicas)
	}

	// Post-handoff equality against the single-node reference, byte for
	// byte, over base and streamed vocabulary.
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-rs-a"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-rs-b", "pop", "zz-rs-c"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, res.Analysis.TagNames()[:40])

	// The handoff is observable after the fact: new shard count, the
	// completed epoch, phase idle.
	stats := rt.stats(t)
	if len(stats.Cluster.Shards) != after || stats.Cluster.Healthy != after {
		t.Fatalf("post-reshard cluster %+v, want %d healthy shards", stats.Cluster, after)
	}
	stats.wantHandoff(t, 1, before, after)

	// Writes keep working on the grown tier and stay exact.
	rt.ingest(t, rounds,
		server.IngestEvent{Video: "rs2", Tags: []string{"zz-rs-d", "zz-rs-e"}, Country: "US", Views: 90, Upload: true},
		server.IngestEvent{Video: "rs2", Tags: []string{"zz-rs-d", "zz-rs-e"}, Country: "KR", Views: 10})
	rt.fold()
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-rs-d"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-rs-e", "zz-rs-a", "favela"})
}

// TestLiveReshardShrinkEndToEnd is the grow test run the other way:
// 3 → 2 shards at R=1 under concurrent reads. Both survivors import the
// departing shard's slice (and each other's share of the new ring) and
// prune the rest at adopt; the departed daemon is simply no longer asked.
func TestLiveReshardShrinkEndToEnd(t *testing.T) {
	res := testFixture(t)
	const before, after = 3, 2
	rt := startReshardTier(t, before, 1)

	const rounds = 20
	tags := []string{"zz-sh-a", "zz-sh-b", "zz-sh-c"}
	rt.ingest(t, rounds,
		server.IngestEvent{Video: "sh", Tags: tags, Country: "BR", Views: 75, Upload: true},
		server.IngestEvent{Video: "sh", Tags: tags, Country: "IN", Views: 25})
	rt.fold()
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-sh-a", "pop"})

	shrunk := []string{rt.nodes[0].ts.URL, rt.nodes[1].ts.URL}
	var rr cluster.ReshardResponse
	var code int
	reads, readErrs := rt.readDuring(func() {
		code = postJSON(t, rt.client, rt.gw.URL+"/v1/reshard", cluster.ReshardRequest{Targets: shrunk}, &rr)
	})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/reshard: status %d (%+v)", code, rr)
	}
	if readErrs != 0 {
		t.Fatalf("%d of %d concurrent reads failed during the shrink, want 0", readErrs, reads)
	}
	if reads == 0 {
		t.Fatal("read load goroutine never issued a request — the test proved nothing")
	}
	if rr.Shards != after || rr.HandoffEpoch != 1 {
		t.Fatalf("reshard ack %+v, want shards=%d handoff_epoch=1", rr, after)
	}

	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-sh-a"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-sh-b", "pop", "zz-sh-c"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, res.Analysis.TagNames()[:40])
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, res.Analysis.TagNames()[len(res.Analysis.TagNames())-40:])

	stats := rt.stats(t)
	if len(stats.Cluster.Shards) != after || stats.Cluster.Healthy != after {
		t.Fatalf("post-shrink cluster %+v, want %d healthy shards", stats.Cluster, after)
	}
	stats.wantHandoff(t, 1, before, after)

	rt.ingest(t, rounds,
		server.IngestEvent{Video: "sh2", Tags: []string{"zz-sh-d", "zz-sh-a"}, Country: "DE", Views: 80, Upload: true},
		server.IngestEvent{Video: "sh2", Tags: []string{"zz-sh-d", "zz-sh-a"}, Country: "JP", Views: 20})
	rt.fold()
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-sh-d"})
	// zz-sh-a's second geography lands on top of its first in whatever
	// folds each side's timer cut; the sums are exact, so the bytes agree.
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-sh-a", "zz-sh-c", "favela"})
}

// TestReshardKeepsUnfoldedEvents: a 3→4 grow at R=2 where nothing has
// folded before POST /v1/reshard, over tags whose slices move to the
// incoming shard. The transfer routes fold before they export or merge,
// so the acked events move with their slices: after one fold the tier
// answers like a single node fed the same batches.
func TestReshardKeepsUnfoldedEvents(t *testing.T) {
	const before, after, replicas = 3, 4, 2
	rt := startReshardTierFolding(t, before, replicas, time.Hour)
	grownRing, err := ring.New(after, replicas)
	if err != nil {
		t.Fatal(err)
	}
	var tags []string
	for i := 0; len(tags) < 3; i++ {
		if tag := fmt.Sprintf("zz-uf-%d", i); grownRing.Owns(tag, before) {
			tags = append(tags, tag)
		}
	}
	rt.ingest(t, 20,
		server.IngestEvent{Video: "uf", Tags: tags, Country: "BR", Views: 70, Upload: true},
		server.IngestEvent{Video: "uf", Tags: tags, Country: "DE", Views: 30})
	for _, n := range rt.nodes {
		if st := n.acc.Stats(); st.Pending == 0 || n.acc.Epoch() != 0 {
			t.Fatalf("a node folded before the reshard: %+v, epoch %d", st, n.acc.Epoch())
		}
	}

	grown := append(rt.urls(), rt.addNode(t, before, after, replicas).ts.URL)
	var rr cluster.ReshardResponse
	if code := postJSON(t, rt.client, rt.gw.URL+"/v1/reshard", cluster.ReshardRequest{Targets: grown}, &rr); code != http.StatusOK {
		t.Fatalf("POST /v1/reshard: status %d (%+v)", code, rr)
	}

	rt.settle()
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, tags[:1])
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{tags[1], "pop", tags[2]})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"favela", "samba"})
}

// TestReshardFailureKeepsOldTier: an incoming daemon passes the
// pre-flight (ready, same dataset) and then refuses the import with 503. The reshard answers 503, the handoff record is back at
// idle with the attempt counted, and the old tier keeps serving exactly.
func TestReshardFailureKeepsOldTier(t *testing.T) {
	res := testFixture(t)
	const before = 3
	rt := startReshardTier(t, before, 1)
	rt.ingest(t, 10,
		server.IngestEvent{Video: "rf", Tags: []string{"zz-fail-a", "zz-fail-b"}, Country: "KR", Views: 70, Upload: true},
		server.IngestEvent{Video: "rf", Tags: []string{"zz-fail-a", "zz-fail-b"}, Country: "US", Views: 30})
	rt.fold()

	// The daemon that cannot import: a server over the slice it would
	// own whose import route answers 503, as a daemon out of disk or
	// shutting down would.
	cfg := server.DefaultConfig()
	cfg.ShardIndex, cfg.ShardCount = before, before+1
	store, err := profilestore.NewStore(fixtureBase(t, before, before+1, 1).Snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetReady()
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/internal/transfer/import" {
			server.WriteError(w, http.StatusServiceUnavailable, "import refused")
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer bare.Close()
	targets := []string{rt.nodes[0].ts.URL, rt.nodes[1].ts.URL, rt.nodes[2].ts.URL, bare.URL}
	var envelope struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, rt.client, rt.gw.URL+"/v1/reshard", cluster.ReshardRequest{Targets: targets}, &envelope); code != http.StatusServiceUnavailable {
		t.Fatalf("reshard onto a daemon that cannot import: status %d (%q), want 503", code, envelope.Error)
	}

	stats := rt.stats(t)
	if len(stats.Cluster.Shards) != before {
		t.Fatalf("after the failed reshard the gateway routes over %d shards, want %d", len(stats.Cluster.Shards), before)
	}
	stats.wantHandoff(t, 1, before, before+1)
	if v := promCounter(t, rt.client, rt.gw.URL, "viewstags_handoff_epoch"); v != 1 {
		t.Fatalf("viewstags_handoff_epoch %v after one failed reshard, want 1", v)
	}

	rt.g.RefreshHealth(context.Background())
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"zz-fail-a", "pop"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, res.Analysis.TagNames()[:40])
}

// TestReshardRejectsRepeatedTarget pins the request-shape half of
// POST /v1/reshard: a target list naming one daemon twice would have that
// daemon adopt two ring indexes in turn — pruning to the first slice,
// then pruning that to the second — and no signature check could notice.
// It is refused 400 before the pre-flight touches a node: every shard
// keeps its tags and the tier still answers like a single node. So are a
// blank target (no request to it could ever work) and an empty list.
func TestReshardRejectsRepeatedTarget(t *testing.T) {
	res := testFixture(t)
	const shards = 3
	rt := startReshardTier(t, shards, 1)
	targets := rt.urls()
	numTags := make([]int, shards)
	for i, n := range rt.nodes {
		numTags[i] = n.store.Load().NumTags()
	}

	for name, list := range map[string][]string{
		"repeated":            {targets[0], targets[0], targets[2]},
		"repeated after trim": {targets[0], " " + targets[0] + "/ ", targets[2]},
		"blank":               {targets[0], "  ", targets[2]},
		"empty":               {},
	} {
		var envelope struct {
			Error string `json:"error"`
		}
		code := postJSON(t, rt.client, rt.gw.URL+"/v1/reshard", cluster.ReshardRequest{Targets: list}, &envelope)
		if code != http.StatusBadRequest || envelope.Error == "" {
			t.Errorf("%s target list: status %d (%q), want 400 with an error", name, code, envelope.Error)
		}
	}
	for i, n := range rt.nodes {
		if got := n.store.Load().NumTags(); got != numTags[i] {
			t.Errorf("shard %d holds %d tags after the refused reshards, had %d", i, got, numTags[i])
		}
	}
	rt.g.RefreshHealth(context.Background())
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, res.Analysis.TagNames()[:40])
	assertSamePrediction(t, rt.client, rt.single.ts.URL, rt.gw.URL, res.Analysis.TagNames()[len(res.Analysis.TagNames())-40:])
}

// TestAdoptedRingOnMetrics: after /internal/transfer/adopt a shard's
// /metrics build info names the ring it adopted, as /internal/meta does,
// not the one it booted with.
func TestAdoptedRingOnMetrics(t *testing.T) {
	n := startReplicaNode(t, 0, 3, 1, reshardFoldEvery)
	defer n.stop()
	client := n.ts.Client()
	ringTwo, err := ring.New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ringTwo.Signature()

	var ack server.TransferAdoptResponse
	adopt := server.TransferAdoptRequest{Index: 0, Shards: 2, Replicas: 1}
	if code := postJSON(t, client, n.ts.URL+"/internal/transfer/adopt", adopt, &ack); code != http.StatusOK || ack.Signature != want {
		t.Fatalf("adopt 0 of 2: status %d, signature %q, want 200 and %q", code, ack.Signature, want)
	}
	var meta server.InternalMetaResponse
	if code := getJSON(t, client, n.ts.URL+"/internal/meta", &meta); code != http.StatusOK || meta.RingSignature != want {
		t.Fatalf("/internal/meta after adopt: status %d, ring %q, want %q", code, meta.RingSignature, want)
	}
	for _, line := range strings.Split(scrape(t, client, n.ts.URL), "\n") {
		if strings.HasPrefix(line, "viewstags_build_info{") {
			if !strings.Contains(line, `ring_signature="`+want+`"`) {
				t.Fatalf("/metrics after adopt: %s, want ring_signature=%q", line, want)
			}
			return
		}
	}
	t.Fatal("/metrics carries no viewstags_build_info")
}
