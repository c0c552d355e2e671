package node

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/server"
)

// TestParseShard pins the -shard spec grammar, in particular that
// trailing garbage fails fast instead of silently joining the cluster
// as the wrong partition.
func TestParseShard(t *testing.T) {
	cases := []struct {
		spec     string
		index, n int
		wantErr  bool
	}{
		{"", 0, 1, false},
		{"0/3", 0, 3, false},
		{"2/3", 2, 3, false},
		{"3/3", 0, 0, true},  // index out of range
		{"-1/3", 0, 0, true}, // negative index
		{"0/0", 0, 0, true},  // no shards
		{"1/3/6", 0, 0, true},
		{"0/32x", 0, 0, true},
		{"a/3", 0, 0, true},
		{"1", 0, 0, true},
		{"1/", 0, 0, true},
		{" 1/3", 0, 0, true},
	}
	for _, c := range cases {
		index, n, err := parseShard(c.spec)
		if (err != nil) != c.wantErr {
			t.Errorf("parseShard(%q): err=%v, wantErr=%v", c.spec, err, c.wantErr)
			continue
		}
		if !c.wantErr && (index != c.index || n != c.n) {
			t.Errorf("parseShard(%q) = (%d, %d), want (%d, %d)", c.spec, index, n, c.index, c.n)
		}
	}
}

// smallOptions is a durable standalone node over a 300-video catalog
// that folds only when asked, logging into the void.
func smallOptions(dir string) Options {
	o := DefaultOptions()
	o.Videos, o.DataDir, o.IngestInterval, o.TraceDumpDir = 300, dir, time.Hour, ""
	o.Server.Logger = log.New(io.Discard, "", 0)
	return o
}

func post(t *testing.T, h http.Handler, path, body string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code
}

// TestBootRecoversWhatCloseCheckpointed: a durable node's first Boot
// builds, and Start leaves it ready with its transfer routes wired — an
// export folds the pending event first. An event acked after that is
// folded and checkpointed by Close, so the next Boot recovers instead of
// building, and both events' tags are served.
func TestBootRecoversWhatCloseCheckpointed(t *testing.T) {
	dir := t.TempDir()
	o := smallOptions(dir)
	b, err := Boot(o)
	if err != nil {
		t.Fatal(err)
	}
	if b.Recovered || b.Served == nil || b.Journal == nil {
		t.Fatalf("first boot: recovered=%v served=%v journal=%v, want a fresh build with a catalog and a journal", b.Recovered, b.Served != nil, b.Journal != nil)
	}
	n, err := Start(context.Background(), o, b)
	if err != nil {
		t.Fatal(err)
	}
	h := n.Server.Handler()
	if code := post(t, h, "/v1/ingest", `{"events":[{"video":"nd-1","tags":["zz-node"],"country":"KR","views":5,"upload":true}]}`); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if n.Acc.Stats().Pending == 0 {
		t.Fatalf("the event folded on its own: %+v", n.Acc.Stats())
	}
	if code := post(t, h, "/internal/transfer/export", `{"dest_index":0,"dest_shards":1}`); code != http.StatusOK {
		t.Fatalf("transfer export: status %d, want 200 (topology and fold hook wired)", code)
	}
	if n.Acc.Stats().Pending != 0 {
		t.Fatal("a transfer did not fold the pending event first")
	}
	if code := post(t, h, "/v1/ingest", `{"events":[{"video":"nd-2","tags":["zz-node-late"],"country":"KR","views":5,"upload":true}]}`); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz %d after Start, want 200", rec.Code)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	b, err = Boot(o)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Recovered || b.Served == nil {
		t.Fatalf("second boot: recovered=%v served=%v, want the checkpoint and the catalog", b.Recovered, b.Served != nil)
	}
	n, err = Start(context.Background(), o, b)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	for _, tag := range []string{"zz-node", "zz-node-late"} {
		if _, ok := n.Store.Load().Lookup(tag); !ok {
			t.Fatalf("acked tag %s is not served after the restart", tag)
		}
	}
}

// TestParseTargets pins the -shards list grammar: entries are trimmed
// and lose one trailing slash, empty ones are skipped, and a list with
// no target left is refused.
func TestParseTargets(t *testing.T) {
	cases := []struct {
		shards  string
		want    []string
		wantErr string
	}{
		{shards: "http://a", want: []string{"http://a"}},
		{shards: " http://a , http://b\t", want: []string{"http://a", "http://b"}},
		{shards: "http://a/,http://b/ ", want: []string{"http://a", "http://b"}},
		{shards: "http://a//", want: []string{"http://a/"}},
		{shards: "a,,b", want: []string{"a", "b"}},
		{shards: "a,b,", want: []string{"a", "b"}},
		{shards: "", wantErr: "no -shards given"},
		{shards: " , ", wantErr: `no usable targets in -shards " , "`},
		{shards: "/,", wantErr: `no usable targets in -shards "/,"`},
	}
	for _, c := range cases {
		got, err := parseTargets(c.shards)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("parseTargets(%q): err %v, want %q", c.shards, err, c.wantErr)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseTargets(%q) = %q, %v; want %q", c.shards, got, err, c.want)
		}
	}
}

// startProbedNode is an in-memory smallOptions node behind a handler
// that counts the /internal/meta probes it answers.
func startProbedNode(t *testing.T) (*Node, *httptest.Server, *atomic.Int64) {
	t.Helper()
	o := smallOptions("")
	b, err := Boot(o)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Start(context.Background(), o, b)
	if err != nil {
		t.Fatal(err)
	}
	probes := new(atomic.Int64)
	h := n.Server.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == server.InternalMetaPath {
			probes.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		_ = n.Close()
	})
	return n, ts, probes
}

// startGatewayOver starts the gateway role over one shard, polling its
// health every interval, logging into the void.
func startGatewayOver(t *testing.T, shard string, interval time.Duration) *cluster.Gateway {
	t.Helper()
	o := DefaultGatewayOptions()
	o.Shards, o.TraceDumpDir = shard, ""
	o.Gateway.HealthInterval = interval
	o.Gateway.Logger = log.New(io.Discard, "", 0)
	g, err := StartGateway(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGatewayCloseStopsPolling: a started gateway probes its shard on
// its own, and once Close returns it probes no more.
func TestGatewayCloseStopsPolling(t *testing.T) {
	const interval = 10 * time.Millisecond
	_, ts, probes := startProbedNode(t)
	g := startGatewayOver(t, ts.URL, interval)
	synced := probes.Load() // the startup sync's
	for deadline := time.Now().Add(5 * time.Second); probes.Load() <= synced; time.Sleep(interval) {
		if time.Now().After(deadline) {
			g.Close()
			t.Fatalf("no health probe in 5s after the sync (%d probes), want the loop polling every %s", synced, interval)
		}
	}
	g.Close()
	// A probe Close cancelled may already have been written to the
	// socket; give it two intervals to land before taking the count.
	time.Sleep(2 * interval)
	closed := probes.Load()
	time.Sleep(10 * interval)
	if got := probes.Load(); got != closed {
		t.Fatalf("%d probes after Close returned, want 0", got-closed)
	}
}

// TestStartedGatewayObservesFold: a started gateway holding the row of a
// tag that had no fold yet notices the shard's fold on its own and
// answers with the folded row, without a RefreshHealth from outside.
func TestStartedGatewayObservesFold(t *testing.T) {
	n, ts, _ := startProbedNode(t)
	g := startGatewayOver(t, ts.URL, 10*time.Millisecond)
	defer g.Close()
	h := g.Handler()
	if code := post(t, h, "/v1/ingest", `{"events":[{"video":"gw-1","tags":["zz-gw-fold"],"country":"KR","views":5,"upload":true}]}`); code != http.StatusOK {
		t.Fatalf("ingest through the gateway: status %d", code)
	}
	predict := func() *server.PredictResult {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"tags":["zz-gw-fold"],"top":1}`)))
		var pr server.PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || rec.Code != http.StatusOK || pr.Result == nil {
			t.Fatalf("predict through the gateway: status %d, %s", rec.Code, rec.Body.Bytes())
		}
		return pr.Result
	}
	if r := predict(); r.Known { // the gateway now holds the tag's row
		t.Fatalf("the tag is known before any fold: %+v", r)
	}
	if folded, err := n.Comp.FoldNow(); err != nil || !folded {
		t.Fatalf("FoldNow: folded=%v err=%v", folded, err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		r := predict()
		if r.Known && len(r.Top) == 1 && r.Top[0].Country == "KR" && r.Top[0].Share > 1-1e-9 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("5s after the fold the gateway still answers %+v, want zz-gw-fold known, KR share 1", r)
		}
	}
}
