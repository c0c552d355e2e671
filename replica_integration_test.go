// Replica failover integration test at repository scope: a 3-shard
// R=2 tier — every tag's slice held by two real HTTP daemons — behind
// a real gateway, with one replica cut mid-run. The replication
// contract under test: reads fail over to the surviving copy with no
// client-visible error and stay byte-for-byte equal to a single full
// node's; writes keep landing on the live owners while a replica
// is down; and the revived replica is rebuilt from its peers exactly
// (proven by cutting the OTHER copy afterwards and re-asserting
// equality, so the caught-up replica is the one answering).
package viewstags_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"viewstags/internal/faultproxy"
	"viewstags/internal/server"
)

// startReplicaNode is shard index of count at R replicas: the node
// holds every slice the R-way ring assigns it, and its transfer routes
// work, so gateway catch-up and resharding work against it.
func startReplicaNode(t *testing.T, index, count, replicas int, foldEvery time.Duration) *clusterNode {
	t.Helper()
	return startNode(t, nodeOptions(index, count, replicas, foldEvery), fixtureBase(t, index, count, replicas))
}

// newFlakyShard fronts one node with a connection-level fault proxy
// whose failure mode is a cut connection — the transport error a crashed
// daemon produces — while the URL the gateway routes to stays stable
// across "crashes", so the same shard can die and come back.
func newFlakyShard(t *testing.T, backend string) *faultproxy.Proxy {
	t.Helper()
	p, err := faultproxy.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// startFlakyTier is a tier whose gateway reaches each shard through a
// fault proxy (returned in shard order), marks a shard down after two
// failures and polls only when the test calls RefreshHealth, so health
// state moves at the steps the test asserts.
func startFlakyTier(t *testing.T, shards, replicas int) (*tier, []*faultproxy.Proxy) {
	t.Helper()
	tr := newTier(t, shards, replicas, 15*time.Millisecond)
	proxies := make([]*faultproxy.Proxy, shards)
	targets := make([]string, shards)
	for i, n := range tr.nodes {
		proxies[i] = newFlakyShard(t, n.ts.URL)
		targets[i] = proxies[i].URL()
	}
	tr.opts.Gateway.FailThreshold = 2
	tr.opts.Gateway.HealthInterval = time.Hour
	tr.RestartGateway(t, targets)
	return tr, proxies
}

// promCounter scrapes one counter from the gateway's /metrics text.
func promCounter(t *testing.T, client *http.Client, base, name string) float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparsable %s value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("counter %s not in exposition", name)
	return 0
}

// TestReplicaFailoverEndToEnd drives the kill → failover → sloppy
// writes → catch-up → exactness sequence described in the package
// comment.
func TestReplicaFailoverEndToEnd(t *testing.T) {
	res := testFixture(t)
	const shards, replicas = 3, 2
	tr, proxies := startFlakyTier(t, shards, replicas)
	single, g, gw, client := tr.single, tr.g, tr.gw, tr.client
	ctx := context.Background()

	readyCode := func() int {
		resp, err := client.Get(gw.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		return resp.StatusCode
	}

	// Healthy tier: replicated answers match the single node.
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:25])

	// Cut shard 1 with the gateway still believing it healthy: every
	// read that routes there must fail over to the other replica with
	// no client-visible error.
	proxies[1].Kill()
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"pop", "music"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:40])
	if v := promCounter(t, client, gw.URL, "viewstags_replica_failover_total"); v <= 0 {
		t.Fatalf("failover counter = %v after reads against a cut replica, want > 0", v)
	}

	// Health detection marks it down; with R=2 every slice is still
	// covered, so the cluster stays READY — the tentpole's availability
	// claim.
	g.RefreshHealth(ctx)
	g.RefreshHealth(ctx)
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz with one of two replicas down: %d, want 200", code)
	}

	// Writes while down are sloppy: live owners take them, nothing
	// sheds, the single node gets the identical stream.
	const rounds = 20
	for i := 0; i < rounds; i++ {
		events := []server.IngestEvent{
			{Video: fmt.Sprintf("rf-%d", i), Tags: []string{"zz-rf-a", "zz-rf-b", "zz-rf-c"},
				Country: "BR", Views: 70, Upload: true},
			{Video: fmt.Sprintf("rf-%d", i), Tags: []string{"zz-rf-a", "zz-rf-b", "zz-rf-c"},
				Country: "DE", Views: 30},
		}
		for _, url := range []string{gw.URL, single.ts.URL} {
			if code := postJSON(t, client, url+"/v1/ingest", server.IngestRequest{Events: events}, nil); code != http.StatusOK {
				t.Fatalf("ingest round %d at %s with a replica down: status %d", i, url, code)
			}
		}
	}
	tr.fold()
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rf-a"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rf-b", "pop"})

	// Revive: the shard answers again but is stale, so it re-enters as
	// syncing (writes yes, reads no) until catch-up rebuilds it from
	// the live replicas under the gateway's write barrier.
	proxies[1].Revive()
	g.RefreshHealth(ctx)
	if err := g.CatchUp(ctx); err != nil {
		t.Fatalf("catch-up after revival: %v", err)
	}
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz after catch-up: %d, want 200", code)
	}

	// Exactness of the rebuild: cut the OTHER replica, forcing shard 1
	// to serve the slices the two share — including everything ingested
	// while it was dead. Any catch-up gap shows up as a float mismatch.
	proxies[2].Kill()
	g.RefreshHealth(ctx)
	g.RefreshHealth(ctx)
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz with the other replica down: %d, want 200", code)
	}
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rf-a"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rf-c", "favela", "zz-rf-a"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:40])

	// The stats surface tells the whole story: R=2, one shard down,
	// none syncing.
	var stats struct {
		Cluster struct {
			Replicas int `json:"replicas"`
			Healthy  int `json:"healthy"`
			Shards   []struct {
				Healthy bool `json:"healthy"`
				Syncing bool `json:"syncing"`
			} `json:"shards"`
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
	if stats.Cluster.Replicas != replicas || stats.Cluster.Healthy != shards-1 {
		t.Fatalf("cluster stats %+v, want replicas=%d healthy=%d", stats.Cluster, replicas, shards-1)
	}
	for i, s := range stats.Cluster.Shards {
		if s.Syncing {
			t.Fatalf("shard %d still syncing after catch-up", i)
		}
	}
}

// TestCatchUpTwoReplicasOnePass: at R=3 over 4 shards every slice keeps
// a live copy with any two shards out, so two replicas can die, miss a
// stream of writes, come back syncing together, and be rebuilt by one
// CatchUp — one move onto the same ring with both as destinations. The
// rebuild is proven exact by then cutting the two shards that never died,
// so the caught-up pair serves every slice alone.
func TestCatchUpTwoReplicasOnePass(t *testing.T) {
	res := testFixture(t)
	const shards, replicas = 4, 3
	tr, proxies := startFlakyTier(t, shards, replicas)
	single, nodes, g, gw, client := tr.single, tr.nodes, tr.g, tr.gw, tr.client
	ctx := context.Background()

	type shardFlags struct {
		Healthy bool `json:"healthy"`
		Syncing bool `json:"syncing"`
	}
	shardStates := func() []shardFlags {
		var stats struct {
			Cluster struct {
				Shards []shardFlags `json:"shards"`
			} `json:"cluster"`
		}
		if code := getJSON(t, client, gw.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("GET /v1/stats: status %d", code)
		}
		return stats.Cluster.Shards
	}

	// Two replicas die together and are marked down; every slice still
	// has a live copy, so writes land on the other two.
	proxies[1].Kill()
	proxies[2].Kill()
	g.RefreshHealth(ctx)
	g.RefreshHealth(ctx)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		events := []server.IngestEvent{
			{Video: fmt.Sprintf("c2-%d", i), Tags: []string{"zz-c2-a", "zz-c2-b", "zz-c2-c"},
				Country: "MX", Views: 65, Upload: true},
			{Video: fmt.Sprintf("c2-%d", i), Tags: []string{"zz-c2-a", "zz-c2-b", "zz-c2-c"},
				Country: "GB", Views: 35},
		}
		for _, url := range []string{gw.URL, single.ts.URL} {
			if code := postJSON(t, client, url+"/v1/ingest", server.IngestRequest{Events: events}, nil); code != http.StatusOK {
				t.Fatalf("ingest round %d at %s with two replicas down: status %d", i, url, code)
			}
		}
	}
	for _, n := range []*clusterNode{single, nodes[0], nodes[3]} {
		n.settle()
	}

	// Both come back stale and re-enter syncing; one CatchUp rebuilds both.
	proxies[1].Revive()
	proxies[2].Revive()
	g.RefreshHealth(ctx)
	for _, i := range []int{1, 2} {
		if s := shardStates()[i]; !s.Syncing {
			t.Fatalf("revived shard %d: %+v, want syncing", i, s)
		}
	}
	if err := g.CatchUp(ctx); err != nil {
		t.Fatalf("catch-up of two replicas: %v", err)
	}
	for i, s := range shardStates() {
		if !s.Healthy || s.Syncing {
			t.Fatalf("shard %d after one catch-up: %+v, want healthy and in rotation", i, s)
		}
	}

	// Exactness: cut the two shards that never died. Every tag has three
	// owners among four shards, so the caught-up pair holds all of them.
	proxies[0].Kill()
	proxies[3].Kill()
	g.RefreshHealth(ctx)
	g.RefreshHealth(ctx)
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-c2-a"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-c2-b", "favela", "zz-c2-c"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:40])
}
