package node

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
