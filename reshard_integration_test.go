// Live resharding integration test at repository scope: a 3-shard R=2
// tier grows to 4 shards while concurrent reads hammer the gateway.
// The handoff contract under test: zero failed requests during the
// move (the request barrier stalls them, it never drops them),
// post-handoff predictions float-tolerance-equal to a single full
// node (slices moved exactly once, nothing double-counted), the new
// ring visible in /v1/stats with the handoff record, and writes
// landing correctly on the grown tier afterwards.
package viewstags_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/server"
)

func TestLiveReshardGrowEndToEnd(t *testing.T) {
	res := testFixture(t)
	const before, after, replicas = 3, 4, 2
	foldEvery := 15 * time.Millisecond

	ringOne, err := cluster.NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := startClusterNode(t, ringOne, 0, 1, foldEvery)
	defer single.stop()

	nodes := make([]*clusterNode, before)
	targets := make([]string, before)
	for i := range nodes {
		nodes[i] = startReplicaNode(t, i, before, replicas, foldEvery)
		defer nodes[i].stop()
		targets[i] = nodes[i].ts.URL
	}
	gcfg := cluster.DefaultGatewayConfig()
	gcfg.Replicas = replicas
	g, err := cluster.NewGateway(gcfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	client := gw.Client()

	// Seed a live stream into both tiers so the reshard has folded
	// post-boot state to move, not just the synthetic base.
	const rounds = 20
	for i := 0; i < rounds; i++ {
		events := []server.IngestEvent{
			{Video: fmt.Sprintf("rs-%d", i), Tags: []string{"zz-rs-a", "zz-rs-b", "zz-rs-c"},
				Country: "JP", Views: 60, Upload: true},
			{Video: fmt.Sprintf("rs-%d", i), Tags: []string{"zz-rs-a", "zz-rs-b", "zz-rs-c"},
				Country: "FR", Views: 40},
		}
		for _, url := range []string{gw.URL, single.ts.URL} {
			if code := postJSON(t, client, url+"/v1/ingest", server.IngestRequest{Events: events}, nil); code != http.StatusOK {
				t.Fatalf("seed ingest round %d at %s: status %d", i, url, code)
			}
		}
	}
	waitFolded := func(ns []*clusterNode) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			pending := single.acc.Stats().Pending
			for _, n := range ns {
				pending += n.acc.Stats().Pending
			}
			if pending == 0 {
				for _, n := range append(ns, single) {
					n.settle()
				}
				return
			}
			time.Sleep(foldEvery)
		}
	}
	waitFolded(nodes)
	// The folds above happened behind the gateway's back: it answers
	// from the rows it holds until it observes the new epochs, so observe
	// them (what its health loop does every HealthInterval).
	g.RefreshHealth(context.Background())
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rs-a", "pop"})

	// Boot the incoming shard with its grown identity: shard 3 of 4
	// over the same dataset. It builds its base slice itself; the
	// reshard transfer brings it everything folded since boot.
	n3 := startReplicaNode(t, 3, after, replicas, foldEvery)
	defer n3.stop()

	// Concurrent read load straddling the move. The request barrier
	// makes the reshard invisible: requests stall briefly and then
	// succeed — a failure here is a dropped request.
	stop := make(chan struct{})
	var reads, readErrs atomic.Int64
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
			resp, err := client.Post(gw.URL+"/v1/predict", "application/json", bytes.NewReader(req))
			reads.Add(1)
			if err != nil {
				readErrs.Add(1)
				continue
			}
			if err := json.NewDecoder(resp.Body).Decode(&buf); err != nil ||
				resp.StatusCode != http.StatusOK || buf.Result == nil || !buf.Result.Known {
				readErrs.Add(1)
			}
			_ = resp.Body.Close()
		}
	}()

	grown := append(append([]string(nil), targets...), n3.ts.URL)
	var rr cluster.ReshardResponse
	code := postJSON(t, client, gw.URL+"/v1/reshard", cluster.ReshardRequest{Targets: grown}, &rr)
	close(stop)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("POST /v1/reshard: status %d (%+v)", code, rr)
	}
	if readErrs.Load() != 0 {
		t.Fatalf("%d of %d concurrent reads failed during the reshard, want 0", readErrs.Load(), reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("read load goroutine never issued a request — the test proved nothing")
	}
	if rr.Shards != after || rr.Replicas != replicas || rr.HandoffEpoch != 1 {
		t.Fatalf("reshard ack %+v, want shards=%d replicas=%d handoff_epoch=1", rr, after, replicas)
	}

	// Post-handoff equality against the single-node reference: the
	// tentpole's 1e-9 criterion, over base and streamed vocabulary.
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rs-a"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rs-b", "pop", "zz-rs-c"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:40])

	// The handoff is observable after the fact: new shard count, the
	// completed epoch, phase idle.
	var stats struct {
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
	resp, err := client.Get(gw.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Cluster.Shards) != after || stats.Cluster.Healthy != after {
		t.Fatalf("post-reshard cluster %+v, want %d healthy shards", stats.Cluster, after)
	}
	if h := stats.Cluster.Handoff; h == nil || h.Epoch != 1 || h.Phase != "idle" || h.From != before || h.To != after {
		t.Fatalf("post-reshard handoff %+v, want epoch=1 phase=idle from=%d to=%d", stats.Cluster.Handoff, before, after)
	}

	// Writes keep working on the grown tier and stay exact.
	for i := 0; i < rounds; i++ {
		events := []server.IngestEvent{
			{Video: fmt.Sprintf("rs2-%d", i), Tags: []string{"zz-rs-d", "zz-rs-e"},
				Country: "US", Views: 90, Upload: true},
			{Video: fmt.Sprintf("rs2-%d", i), Tags: []string{"zz-rs-d", "zz-rs-e"},
				Country: "KR", Views: 10},
		}
		for _, url := range []string{gw.URL, single.ts.URL} {
			if code := postJSON(t, client, url+"/v1/ingest", server.IngestRequest{Events: events}, nil); code != http.StatusOK {
				t.Fatalf("post-reshard ingest round %d at %s: status %d", i, url, code)
			}
		}
	}
	waitFolded(append(append([]*clusterNode(nil), nodes...), n3))
	g.RefreshHealth(context.Background())
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rs-d"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rs-e", "zz-rs-a", "favela"})
}

// TestReshardRejectsRepeatedTarget pins the request-shape half of
// POST /v1/reshard: a target list naming one daemon twice would have that
// daemon adopt two ring indexes in turn — pruning to the first slice,
// then pruning that to the second — and no signature check could notice.
// It is refused 400 before the pre-flight touches a node: every shard
// keeps its tags and the tier still answers like a single node.
func TestReshardRejectsRepeatedTarget(t *testing.T) {
	res := testFixture(t)
	const shards = 3
	foldEvery := 15 * time.Millisecond

	ringOne, err := cluster.NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := startClusterNode(t, ringOne, 0, 1, foldEvery)
	defer single.stop()

	nodes := make([]*clusterNode, shards)
	targets := make([]string, shards)
	numTags := make([]int, shards)
	for i := range nodes {
		nodes[i] = startReplicaNode(t, i, shards, 1, foldEvery)
		defer nodes[i].stop()
		targets[i] = nodes[i].ts.URL
		numTags[i] = nodes[i].store.Load().NumTags()
	}
	g, err := cluster.NewGateway(cluster.DefaultGatewayConfig(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	client := gw.Client()

	for name, list := range map[string][]string{
		"repeated":            {targets[0], targets[0], targets[2]},
		"repeated after trim": {targets[0], " " + targets[0] + "/ ", targets[2]},
		"empty":               {},
	} {
		var envelope struct {
			Error string `json:"error"`
		}
		code := postJSON(t, client, gw.URL+"/v1/reshard", cluster.ReshardRequest{Targets: list}, &envelope)
		if code != http.StatusBadRequest || envelope.Error == "" {
			t.Errorf("%s target list: status %d (%q), want 400 with an error", name, code, envelope.Error)
		}
	}
	for i, n := range nodes {
		if got := n.store.Load().NumTags(); got != numTags[i] {
			t.Errorf("shard %d holds %d tags after the refused reshards, had %d", i, got, numTags[i])
		}
	}
	g.RefreshHealth(context.Background())
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:40])
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[len(res.Analysis.TagNames())-40:])
}
