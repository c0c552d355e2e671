// Cluster integration test at repository scope: a 3-shard
// tag-partitioned serving tier — three real HTTP shard daemons
// (partial-vocabulary snapshots, live compactors) behind a real HTTP
// gateway — driven concurrently with reads and writes, asserting the
// tentpole acceptance criterion: gateway /v1/predict replies equal a
// single full node's over the same dataset byte for byte, before and
// after streaming ingest, and the gateway reports the cluster's minimum
// fold epoch throughout.
package viewstags_test

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

	"viewstags/internal/cluster"
	"viewstags/internal/faultproxy"
	"viewstags/internal/ingest"
	"viewstags/internal/node"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/server"
	"viewstags/internal/xrand"
)

// clusterNode is one daemon of the tier, shard or standalone: the node
// cmd/serve runs (internal/node's assembly), over the shared fixture's
// snapshot, behind httptest.
type clusterNode struct {
	srv   *server.Server
	store *profilestore.Store // the store srv serves
	acc   *ingest.Accumulator
	ts    *httptest.Server
	stop  func()
	// settle returns once no fold is mid-install: the accumulator's
	// pending count drops to zero when a fold drains it, before the new
	// snapshot is served, and FoldNow queues behind that fold.
	settle func()
}

// nodeOptions are cmd/serve's defaults for shard index of count at R
// replicas, folding every foldEvery, without the flight recorder.
func nodeOptions(index, count, replicas int, foldEvery time.Duration) node.Options {
	o := node.DefaultOptions()
	o.Shard = fmt.Sprintf("%d/%d", index, count)
	o.Server.Replicas = replicas
	o.IngestInterval = foldEvery
	o.TraceDumpDir = ""
	return o
}

// fixtureBase is the shared fixture's snapshot of the slice the R-way
// ring of count shards places on shard index.
func fixtureBase(t *testing.T, index, count, replicas int) *node.Base {
	t.Helper()
	rg, err := ring.New(count, replicas)
	if err != nil {
		t.Fatal(err)
	}
	var owns func(string) bool
	if count > 1 {
		owns = func(name string) bool { return rg.Owns(name, index) }
	}
	snap, err := profilestore.BuildOwned(testFixture(t).Analysis, owns)
	if err != nil {
		t.Fatal(err)
	}
	return &node.Base{Snap: snap}
}

// startNode starts the assembly over b and serves it behind httptest.
func startNode(t *testing.T, o node.Options, b *node.Base) *clusterNode {
	t.Helper()
	n, err := node.Start(context.Background(), o, b)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Server.Handler())
	return &clusterNode{srv: n.Server, store: n.Store, acc: n.Acc, ts: ts, stop: func() {
		ts.Close()
		_ = n.Close() // the shutdown fold flushes the tail
	}, settle: func() { _, _ = n.Comp.FoldNow() }}
}

// startClusterNode is startReplicaNode at the replica count of ring,
// the tier's ring.
func startClusterNode(t *testing.T, rg *ring.Ring, index, count int, foldEvery time.Duration) *clusterNode {
	t.Helper()
	return startReplicaNode(t, index, count, rg.Replicas(), foldEvery)
}

// tier is shard nodes behind the gateway cmd/gateway runs
// (node.StartGateway), beside a single-node reference that gets the same
// writes. When the test ends the gateway stops, then every node in
// nodes (the tier's own, or ones the test appended).
type tier struct {
	foldEvery time.Duration
	single    *clusterNode
	nodes     []*clusterNode
	// opts are what RestartGateway starts, Shards aside: cmd/gateway's
	// defaults at the tier's R, without the flight recorder.
	opts   node.GatewayOptions
	g      *cluster.Gateway
	gw     *httptest.Server
	client *http.Client
}

// newTier starts the single-node reference and shards nodes at
// replicas, all folding every foldEvery. RestartGateway starts its
// gateway.
func newTier(t *testing.T, shards, replicas int, foldEvery time.Duration) *tier {
	t.Helper()
	tr := &tier{foldEvery: foldEvery, opts: node.DefaultGatewayOptions()}
	tr.opts.TraceDumpDir, tr.opts.Gateway.Replicas = "", replicas
	t.Cleanup(tr.stop)
	tr.single = startReplicaNode(t, 0, 1, 1, foldEvery)
	for i := 0; i < shards; i++ {
		tr.addNode(t, i, shards, replicas)
	}
	return tr
}

// addNode boots shard index of count over the same dataset, wired for
// transfers; the tier folds and stops it with the rest from then on.
func (tr *tier) addNode(t *testing.T, index, count, replicas int) *clusterNode {
	t.Helper()
	n := startReplicaNode(t, index, count, replicas, tr.foldEvery)
	tr.nodes = append(tr.nodes, n)
	return n
}

// urls are the nodes' base URLs, in shard order.
func (tr *tier) urls() []string {
	urls := make([]string, len(tr.nodes))
	for i, n := range tr.nodes {
		urls[i] = n.ts.URL
	}
	return urls
}

// RestartGateway stops the tier's gateway, if it has one, and starts the
// daemon's over targets, behind a fresh httptest server: what restarting
// cmd/gateway with that -shards list does.
func (tr *tier) RestartGateway(t *testing.T, targets []string) {
	t.Helper()
	tr.stopGateway()
	o := tr.opts
	o.Shards = strings.Join(targets, ",")
	g, err := node.StartGateway(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	tr.g, tr.gw = g, httptest.NewServer(g.Handler())
	tr.client = tr.gw.Client()
}

func (tr *tier) stopGateway() {
	if tr.g != nil {
		tr.gw.Close()
		tr.g.Close()
		tr.g = nil
	}
}

func (tr *tier) stop() {
	tr.stopGateway()
	for _, n := range tr.nodes {
		n.stop()
	}
	if tr.single != nil {
		tr.single.stop()
	}
}

// ingest sends rounds copies of events, each video id suffixed with the
// round, to the gateway and to the single node.
func (tr *tier) ingest(t *testing.T, rounds int, events ...server.IngestEvent) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		batch := make([]server.IngestEvent, len(events))
		for k, ev := range events {
			ev.Video = fmt.Sprintf("%s-%d", ev.Video, i)
			batch[k] = ev
		}
		for _, url := range []string{tr.gw.URL, tr.single.ts.URL} {
			if code := postJSON(t, tr.client, url+"/v1/ingest", server.IngestRequest{Events: batch}, nil); code != http.StatusOK {
				t.Fatalf("ingest round %d at %s: status %d", i, url, code)
			}
		}
	}
}

// fold waits until every node has folded what it was sent, then settles.
func (tr *tier) fold() {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		pending := tr.single.acc.Stats().Pending
		for _, n := range tr.nodes {
			pending += n.acc.Stats().Pending
		}
		if pending == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.settle()
}

// settle folds every node now and has the gateway observe the new
// epochs: the folds happened behind its back, and it answers from the
// rows it holds until it sees them (what its health loop does every
// HealthInterval, at an instant of the test's choosing).
func (tr *tier) settle() {
	for _, n := range append(tr.nodes, tr.single) {
		n.settle()
	}
	tr.g.RefreshHealth(context.Background())
}

// TestClusterGatewayEndToEnd stands up the full 3-shard tier plus a
// single-node reference, streams the same writes into both through
// their public APIs under concurrent read load, and asserts equality.
// The gateway's own health loop follows the folds as they happen.
func TestClusterGatewayEndToEnd(t *testing.T) {
	res := testFixture(t)
	const shards = 3
	tr := newTier(t, shards, 1, 15*time.Millisecond)
	tr.opts.Gateway.HealthInterval = 20 * time.Millisecond
	tr.RestartGateway(t, tr.urls())
	single, nodes, g, gw, client := tr.single, tr.nodes, tr.g, tr.gw, tr.client

	// Phase 1: static equivalence on the training vocabulary.
	sampleTags := [][]string{
		{"favela", "samba"},
		{"pop", "music"},
		res.Analysis.TagNames()[:25],
	}
	for _, tags := range sampleTags {
		assertSamePrediction(t, client, single.ts.URL, gw.URL, tags)
	}

	// Phase 2: concurrent stream. Writers push identical multi-tag
	// upload streams into both tiers through their public ingest
	// routes; readers hammer the gateway throughout.
	const rounds = 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			events := []server.IngestEvent{
				{Video: fmt.Sprintf("cl-%d", i), Tags: []string{"zz-clu-a", "zz-clu-b", "zz-clu-c"},
					Country: "JP", Views: 80, Upload: true},
				{Video: fmt.Sprintf("cl-%d", i), Tags: []string{"zz-clu-a", "zz-clu-b", "zz-clu-c"},
					Country: "US", Views: 20},
			}
			for _, url := range []string{gw.URL, single.ts.URL} {
				if code := postJSON(t, client, url+"/v1/ingest", server.IngestRequest{Events: events}, nil); code != http.StatusOK {
					t.Errorf("ingest round %d at %s: status %d", i, url, code)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*3; i++ {
			var pr server.PredictResponse
			code := postJSON(t, client, gw.URL+"/v1/predict",
				server.PredictRequest{Tags: []string{"pop"}, Top: 3}, &pr)
			if code != http.StatusOK || pr.Result == nil || !pr.Result.Known {
				t.Errorf("mid-stream gateway read %d incoherent: code=%d %+v", i, code, pr.Result)
				return
			}
		}
	}()
	wg.Wait()

	// Phase 3: post-stream equivalence, including the ingested tags, once
	// every shard has folded the tail. A fold whose install is still in
	// flight has already zeroed its pending count, so fold settles every
	// fold and then observes.
	tr.fold()
	for _, tags := range [][]string{
		{"zz-clu-a"},
		{"zz-clu-b", "pop"},
		{"zz-clu-c", "favela", "zz-clu-a"},
	} {
		assertSamePrediction(t, client, single.ts.URL, gw.URL, tags)
	}

	// The ingested geography round-trips exactly (80/20 JP/US).
	var pr server.PredictResponse
	if code := postJSON(t, client, gw.URL+"/v1/predict",
		server.PredictRequest{Tags: []string{"zz-clu-b"}, Top: 2}, &pr); code != http.StatusOK {
		t.Fatalf("post-stream predict: %d", code)
	}
	if pr.Result == nil || !pr.Result.Known {
		t.Fatalf("ingested tag unknown after folds: %+v", pr)
	}
	if top := pr.Result.Top[0]; top.Country != "JP" || top.Share != 0.8 {
		t.Fatalf("ingested geography not reflected: top=%+v, want JP at 0.8", top)
	}

	// Every shard's corpus grew by exactly `rounds` uploads — including
	// shards owning none of the stream's tags (announcement routing).
	for i, n := range nodes {
		base := testFixture(t).Analysis.N()
		if got := n.store.Load().Records(); got != base+rounds {
			t.Fatalf("shard %d records %d, want %d", i, got, base+rounds)
		}
	}

	// The gateway health view converged: min epoch > 0 and every shard
	// healthy.
	g.RefreshHealth(context.Background())
	var health struct {
		Status  string `json:"status"`
		Epoch   uint64 `json:"epoch"`
		Healthy int    `json:"healthy"`
	}
	resp, err := client.Get(gw.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Healthy != shards {
		t.Fatalf("cluster health %+v", health)
	}
	if health.Epoch == 0 {
		t.Fatal("gateway reports epoch 0 after a streamed run — epoch tracking broken")
	}
}

// TestGatewayPredictBytesEqualNode is the one-kernel proof: a gateway
// over three shards answers /v1/predict with a single node's reply body,
// byte for byte, because it weights each tag's row — the views, videos
// and stored vector its owner holds — with the node's own weight rule and
// adds it with the kernel the node's own predict runs. Seeded batch-32
// requests drawn from the catalog's real tag lists, plus an item with a
// repeated tag, one whose tags are all unknown (the prior) and one mixing
// unknown and known tags, are asked under every weighting against a cold
// cache and again warm, and warm from another weighting without a leg;
// then after a gateway-ingested batch every shard and the node folded
// once, which brings a tag no upload carries (weightless under IDF alone);
// and at R=2 with one shard cut and marked down, so every frame carries
// it excluded.
func TestGatewayPredictBytesEqualNode(t *testing.T) {
	cat := testFixture(t).Catalog
	var lists [][]string
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			lists = append(lists, names)
		}
	}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R%d", replicas), func(t *testing.T) {
			src := xrand.NewSource(uint64(4300 + replicas))
			tr := newTier(t, 3, replicas, time.Hour)
			proxies := make([]*faultproxy.Proxy, len(tr.nodes))
			targets := make([]string, len(tr.nodes))
			for i, n := range tr.nodes {
				proxies[i] = newFlakyShard(t, n.ts.URL)
				targets[i] = proxies[i].URL()
			}
			tr.opts.Gateway.FailThreshold = 2
			tr.opts.Gateway.HealthInterval = time.Hour
			tr.RestartGateway(t, targets)

			pick := func() []string { return lists[src.Intn(len(lists))] }
			batch := func(lead ...string) []server.PredictItem {
				a, b := pick(), pick()
				items := []server.PredictItem{
					{Tags: []string{a[0], b[0], a[0]}},
					{Tags: []string{"zz-bytes-none", "zz-bytes-none-2"}},
					{Tags: append([]string{"zz-bytes-none"}, b...)},
				}
				if len(lead) > 0 {
					items = append(items, server.PredictItem{Tags: lead}, server.PredictItem{Tags: append(pick(), lead...)})
				}
				for len(items) < 32 {
					items = append(items, server.PredictItem{Tags: pick()})
				}
				return items
			}
			same := func(what string, items []server.PredictItem) {
				t.Helper()
				assertSameReplies(t, tr.client, tr.single.ts.URL, tr.gw.URL, what, server.PredictRequest{Batch: items, Top: 1 << 10})
			}
			coldWarm := func(what string, lead ...string) {
				t.Helper()
				items := batch(lead...)
				same(what+", cold", items)
				same(what+", warm", items)
			}
			predictLegs := func() (n float64) {
				for i := range tr.nodes {
					n += promCounter(t, tr.client, tr.gw.URL, fmt.Sprintf(`viewstags_shard_leg_duration_seconds_count{route="predict",shard="%d"}`, i))
				}
				return n
			}
			// A batch made warm under one weighting is warm under the
			// others: one row per tag serves every weighting.
			warmAcross := func(what string, lead ...string) {
				t.Helper()
				items := batch(lead...)
				req := server.PredictRequest{Batch: items, Weighting: "by-views", Top: 1 << 10}
				if code, _ := postBody(t, tr.client, tr.gw.URL+"/v1/predict", req); code != http.StatusOK {
					t.Fatalf("%s: by-views predict %d", what, code)
				}
				legs := predictLegs()
				same(what+", warm from by-views", items)
				if got := predictLegs() - legs; got != 0 {
					t.Fatalf("%s: a batch warm under by-views made %v predict legs under the other weightings", what, got)
				}
			}

			coldWarm("at boot")
			warmAcross("at boot")

			// One batch through the gateway (and into the node), folded
			// once everywhere: touched vocabulary tags and a new one.
			countries := []string{"JP", "US", "BR", "DE", "KR"}
			var events []server.IngestEvent
			for i := 0; i < 6; i++ {
				tags := append([]string{"zz-bytes-new"}, pick()...)
				events = append(events, server.IngestEvent{Video: fmt.Sprintf("bytes-%d", i), Tags: tags,
					Country: countries[src.Intn(len(countries))], Views: float64(1 + src.Intn(5000)), Upload: src.Bernoulli(0.5)})
			}
			// A new tag with views but no upload: no video carries it, so
			// IDF gives it no weight while by-views does.
			events = append(events, server.IngestEvent{Tags: []string{"zz-bytes-viewed"}, Country: "BR", Views: 700})
			tr.ingest(t, 1, events...)
			tr.settle()
			tr.g.WaitRowRefresh()
			same("after the fold, rows held before it", batch())
			coldWarm("after the fold", "zz-bytes-new", events[0].Tags[1])
			for w, known := range map[string]bool{"uniform": true, "by-views": true, "idf": false} {
				var resp server.PredictResponse
				req := server.PredictRequest{Tags: []string{"zz-bytes-viewed"}, Weighting: w}
				if code := postJSON(t, tr.client, tr.single.ts.URL+"/v1/predict", req, &resp); code != http.StatusOK || resp.Result.Known != known {
					t.Fatalf("the viewed, never-uploaded tag alone under %s: %d known=%v, want known=%v", w, code, resp.Result.Known, known)
				}
			}
			coldWarm("a tag no upload carries", "zz-bytes-viewed")
			warmAcross("after the fold", "zz-bytes-viewed", "zz-bytes-new")

			if replicas == 2 {
				proxies[1].Kill()
				for i := 0; i < 2; i++ {
					tr.g.RefreshHealth(context.Background())
				}
				if up := promCounter(t, tr.client, tr.gw.URL, `viewstags_shard_up{shard="1"}`); up != 0 {
					t.Fatalf("cut shard 1 reads up=%v after two failed probes", up)
				}
				coldWarm("shard 1 excluded", "zz-bytes-new")
				warmAcross("shard 1 excluded", "zz-bytes-viewed")
			}
		})
	}
}

// assertSamePrediction compares the two tiers' /v1/predict replies for
// one tag list across all weightings, byte for byte.
func assertSamePrediction(t *testing.T, client *http.Client, singleURL, gatewayURL string, tags []string) {
	t.Helper()
	assertSameReplies(t, client, singleURL, gatewayURL, fmt.Sprint(tags), server.PredictRequest{Tags: tags, Top: 1 << 10})
}

// assertSameReplies posts req to both tiers under every weighting and
// compares the reply bodies byte for byte.
func assertSameReplies(t *testing.T, client *http.Client, singleURL, gatewayURL, what string, req server.PredictRequest) {
	t.Helper()
	for _, weighting := range []string{"uniform", "by-views", "idf"} {
		req.Weighting = weighting
		wc, want := postBody(t, client, singleURL+"/v1/predict", req)
		gc, got := postBody(t, client, gatewayURL+"/v1/predict", req)
		if wc != http.StatusOK || gc != http.StatusOK {
			t.Fatalf("%s w=%s: single node %d, gateway %d", what, weighting, wc, gc)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s w=%s: gateway answered\n%s\nsingle node\n%s", what, weighting, got, want)
		}
	}
}

// postBody posts req as JSON and returns the reply's status and body.
func postBody(t *testing.T, client *http.Client, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}
