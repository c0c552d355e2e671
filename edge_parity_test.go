// Error and reply parity at repository scope: both daemons serve the
// public contract (internal/server edge.go) — their hot routes take the
// hand-written codec for canonical bodies and encoding/json for
// everything else — and a client must not be able to tell which daemon,
// or which decoder, answered. The body strings below were captured from
// the commit before the codec existed; the GET rows from the one before
// the contract was written once (PR 27), when the gateway kept a copy.
package viewstags_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// edgeParityCase is one malformed or unusual body. Either it is refused
// with wantStatus and the pinned wantError, or (sameAs set) it answers
// 200 with exactly the bytes its canonical spelling sameAs gets.
type edgeParityCase struct {
	name       string
	method     string // "" is POST
	path       string
	body       string
	wantStatus int
	wantError  string
	sameAs     string
}

var edgeParityCases = []edgeParityCase{
	{name: "unknown field", path: "/v1/predict", body: `{"tagz":["pop"]}`,
		wantStatus: 400, wantError: `invalid request body: json: unknown field "tagz"`},
	{name: "wrong type", path: "/v1/predict", body: `{"tags":"pop"}`,
		wantStatus: 400, wantError: `invalid request body: json: cannot unmarshal string into Go struct field PredictRequest.tags of type []string`},
	{name: "truncated", path: "/v1/predict", body: `{"tags":["pop"`,
		wantStatus: 400, wantError: `invalid request body: unexpected EOF`},
	{name: "empty body", path: "/v1/predict", body: ``,
		wantStatus: 400, wantError: `invalid request body: EOF`},
	{name: "not an object", path: "/v1/predict", body: `[["pop"]]`,
		wantStatus: 400, wantError: `invalid request body: json: cannot unmarshal array into Go value of type server.PredictRequest`},
	{name: "over-long tag", path: "/v1/predict", body: `{"tags":["` + strings.Repeat("x", server.MaxTagLen+1) + `"]}`,
		wantStatus: 400, wantError: `item 0 tag 0 is 65537 bytes (limit 65536)`},
	{name: "over-long body", path: "/v1/predict", body: `{"tags":["` + strings.Repeat("x", server.MaxBodyBytes) + `"]}`,
		wantStatus: 400, wantError: `invalid request body: http: request body too large`},
	{name: "tags and batch", path: "/v1/predict", body: `{"tags":["pop"],"batch":[{"tags":["pop"]}]}`,
		wantStatus: 400, wantError: `set either tags or batch, not both`},
	{name: "empty batch", path: "/v1/predict", body: `{"batch":[]}`,
		wantStatus: 400, wantError: `empty request: provide tags or batch`},
	{name: "batch item without tags", path: "/v1/predict", body: `{"batch":[{"tags":["pop"]},{}]}`,
		wantStatus: 400, wantError: `item 1 has no tags`},
	{name: "bad weighting", path: "/v1/predict", body: `{"tags":["pop"],"weighting":"bogus"}`,
		wantStatus: 400, wantError: `tagviews: unknown weighting "bogus"`},
	{name: "top 1e2", path: "/v1/predict", body: `{"tags":["pop"],"top":1e2}`,
		wantStatus: 400, wantError: `invalid request body: json: cannot unmarshal number 1e2 into Go struct field PredictRequest.top of type int`},
	{name: "leading-zero top", path: "/v1/predict", body: `{"tags":["pop"],"top":03}`,
		wantStatus: 400, wantError: `invalid request body: invalid character '3' after object key:value pair`},
	{name: "escaped tag", path: "/v1/predict", body: `{"tags":["fav\u0065la","samba"],"top":3}`,
		sameAs: `{"tags":["favela","samba"],"top":3}`},
	{name: "case-variant keys", path: "/v1/predict", body: `{"Tags":["favela","samba"],"TOP":3}`,
		sameAs: `{"tags":["favela","samba"],"top":3}`},
	{name: "duplicate key, last wins", path: "/v1/predict", body: `{"tags":["pop"],"top":3,"tags":["favela","samba"]}`,
		sameAs: `{"tags":["favela","samba"],"top":3}`},
	{name: "null batch", path: "/v1/predict", body: `{"batch":null,"tags":["favela","samba"],"top":3}`,
		sameAs: `{"tags":["favela","samba"],"top":3}`},
	{name: "negative top", path: "/v1/predict", body: `{"tags":["favela","samba"],"top":-1}`,
		sameAs: `{"tags":["favela","samba"]}`},
	{name: "whitespace and key order", path: "/v1/predict", body: " {\n\t\"top\" : 3 ,\r\n \"tags\" : [ \"favela\" , \"samba\" ] }\n",
		sameAs: `{"tags":["favela","samba"],"top":3}`},

	{name: "ingest unknown field", path: "/v1/ingest", body: `{"eventz":[]}`,
		wantStatus: 400, wantError: `invalid request body: json: unknown field "eventz"`},
	{name: "ingest no events", path: "/v1/ingest", body: `{}`,
		wantStatus: 400, wantError: `empty request: provide events`},
	{name: "ingest views as string", path: "/v1/ingest", body: `{"events":[{"tags":["pop"],"country":"JP","views":"7"}]}`,
		wantStatus: 400, wantError: `invalid request body: json: cannot unmarshal string into Go struct field IngestEvent.events.views of type float64`},
	{name: "ingest views out of range", path: "/v1/ingest", body: `{"events":[{"tags":["pop"],"country":"JP","views":1e400}]}`,
		wantStatus: 400, wantError: `invalid request body: json: cannot unmarshal number 1e400 into Go struct field IngestEvent.events.views of type float64`},
	{name: "ingest upload as string", path: "/v1/ingest", body: `{"events":[{"video":"v","tags":["pop"],"country":"JP","views":1,"upload":"yes"}]}`,
		wantStatus: 400, wantError: `invalid request body: json: cannot unmarshal string into Go struct field IngestEvent.events.upload of type bool`},
	{name: "ingest unknown country", path: "/v1/ingest", body: `{"events":[{"tags":["pop"],"country":"JP","views":1},{"tags":["pop"],"country":"ZZ","views":1}]}`,
		wantStatus: 400, wantError: `event 1: unknown country "ZZ"`},
	{name: "ingest negative views", path: "/v1/ingest", body: `{"events":[{"tags":["pop"],"country":"JP","views":-1}]}`,
		wantStatus: 400, wantError: `ingest: event 0 has negative views`},
	{name: "ingest upload without id", path: "/v1/ingest", body: `{"events":[{"tags":["pop"],"country":"JP","views":1,"upload":true}]}`,
		wantStatus: 400, wantError: `ingest: event 0 is an upload without a video id`},
	{name: "ingest empty tag", path: "/v1/ingest", body: `{"events":[{"tags":["pop",""],"country":"JP","views":1}]}`,
		wantStatus: 400, wantError: `ingest: event 0 has an empty tag`},

	{name: "tags k=0", method: "GET", path: "/v1/tags?k=0", wantStatus: 400, wantError: `invalid k "0"`},
	{name: "tags k not a number", method: "GET", path: "/v1/tags?k=ten", wantStatus: 400, wantError: `invalid k "ten"`},
	{name: "tags k with sign", method: "GET", path: "/v1/tags?k=%2B3", sameAs: "/v1/tags?k=3"},
	{name: "traces bad min_ms", method: "GET", path: "/debug/traces?min_ms=-1", wantStatus: 400, wantError: `invalid min_ms "-1"`},
	{name: "traces bad status", method: "GET", path: "/debug/traces?status=slow", wantStatus: 400, wantError: `invalid status "slow" (want ok, error or shed)`},
	{name: "traces bad limit", method: "GET", path: "/debug/traces?limit=0", wantStatus: 400, wantError: `invalid limit "0"`},
	{name: "trace id malformed", method: "GET", path: "/debug/traces/a,b", wantStatus: 400, wantError: `malformed request id`},
	{name: "trace id not retained", method: "GET", path: "/debug/traces/parity-never-sent", wantStatus: 404,
		wantError: `trace parity-never-sent not retained (tail sampling keeps errors, sheds and the slowest per route)`},
}

// TestEdgeErrorParity runs the table against a node and against a
// gateway over three in-process shards.
func TestEdgeErrorParity(t *testing.T) {
	tr := newTier(t, 3, 1, time.Hour)
	tr.opts.Gateway.Logger = log.New(io.Discard, "", 0)
	tr.RestartGateway(t, tr.urls())

	send := func(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
		if method == "" {
			method = http.MethodPost
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for _, d := range []struct {
		name string
		h    http.Handler
	}{{"node", tr.single.srv.Handler()}, {"gateway", tr.g.Handler()}} {
		for _, c := range edgeParityCases {
			rec := send(d.h, c.method, c.path, c.body)
			if c.sameAs != "" {
				// A POST's canonical spelling is a body; a GET's, a path.
				want := send(d.h, c.method, c.path, c.sameAs)
				if c.method == http.MethodGet {
					want = send(d.h, c.method, c.sameAs, "")
				}
				if want.Code != http.StatusOK || rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("%s %s: answered %d %s, its canonical spelling %d %s",
						d.name, c.name, rec.Code, rec.Body.Bytes(), want.Code, want.Body.Bytes())
				}
				continue
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Errorf("%s %s: body %q: %v", d.name, c.name, rec.Body.Bytes(), err)
				continue
			}
			if rec.Code != c.wantStatus || e.Error != c.wantError {
				t.Errorf("%s %s:\n got %d %q\nwant %d %q", d.name, c.name, rec.Code, e.Error, c.wantStatus, c.wantError)
			}
		}
	}
}

// TestReplySizesFollowTheWorld is the size audit of the client-supplied
// counts that reach a make besides /v1/tags' k: `top` on /v1/predict, on
// a node and on a gateway, and `slots` on a node's /v1/preload. A reply
// is as long as the country table or the catalog lets it be, never as
// long as asked, so every value past that answers the bytes the largest
// useful one does; zero asks for the default; and node and gateway
// bodies are identical for every top. It asks at batch 3 and batch 32:
// a reply's top lists share one slab, which a size of items × top would
// not fit in memory.
func TestReplySizesFollowTheWorld(t *testing.T) {
	tr := newTier(t, 3, 1, time.Hour)
	tr.RestartGateway(t, tr.urls())
	cat := testFixture(t).Catalog
	if err := tr.single.srv.SetCatalog(cat.Served(), tagviews.WeightIDF); err != nil {
		t.Fatal(err)
	}
	nC, n := tr.single.store.Load().World().N(), cat.Served().N()
	send := func(h http.Handler, path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	three := []string{`{"tags":["favela","samba","pop"]}`, `{"tags":["zz-size-none"]}`, `{"tags":["pop","zz-size-none","music"]}`}
	var thirtyTwo []string
	for i := 0; i < 32; i++ {
		thirtyTwo = append(thirtyTwo, three[i%len(three)])
	}
	for _, batch := range [][]string{three, thirtyTwo} {
		items := "[" + strings.Join(batch, ",") + "]"
		predict := func(h http.Handler, top int) []byte {
			return send(h, "/v1/predict", fmt.Sprintf(`{"batch":%s,"top":%d}`, items, top))
		}
		for _, c := range []struct {
			name   string
			top    int
			sameAs int // the top whose bytes it answers
		}{
			{"0, the default", 0, 5},
			{"1", 1, 1},
			{"nC", nC, nC},
			{"nC+1", nC + 1, nC},
			{"the largest the edge decoder admits", math.MaxInt32, nC},
			{"one past it, decoded by encoding/json", math.MaxInt32 + 1, nC},
		} {
			node, gw := predict(tr.single.srv.Handler(), c.top), predict(tr.g.Handler(), c.top)
			if !bytes.Equal(node, gw) {
				t.Fatalf("batch %d top %s: gateway answered\n%s\nnode\n%s", len(batch), c.name, gw, node)
			}
			if want := predict(tr.single.srv.Handler(), c.sameAs); !bytes.Equal(node, want) {
				t.Fatalf("batch %d top %s: %d bytes, top=%d's %d", len(batch), c.name, len(node), c.sameAs, len(want))
			}
			var resp server.PredictResponse
			if err := json.Unmarshal(node, &resp); err != nil {
				t.Fatal(err)
			}
			for i, r := range resp.Results {
				if len(r.Top) > min(c.sameAs, nC) {
					t.Fatalf("batch %d top %s item %d: %d countries", len(batch), c.name, i, len(r.Top))
				}
			}
		}
	}
	for _, policy := range []string{"tag-push", "pop-push"} {
		preload := func(slots int) []byte {
			return send(tr.single.srv.Handler(), "/v1/preload", fmt.Sprintf(`{"country":"BR","policy":%q,"slots":%d}`, policy, slots))
		}
		for _, c := range []struct {
			name          string
			slots, sameAs int
		}{
			{"0, the default", 0, 64},
			{"1", 1, 1},
			{"n", n, n},
			{"n+1", n + 1, n},
			{"MaxInt", math.MaxInt, n},
		} {
			body, want := preload(c.slots), preload(c.sameAs)
			var resp server.PreloadResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) || len(resp.Videos) > min(c.sameAs, n) || len(resp.Videos) == 0 {
				t.Fatalf("%s slots %s: %d videos in %d bytes, slots=%d answers %d bytes", policy, c.name, len(resp.Videos), len(body), c.sameAs, len(want))
			}
		}
	}
}
