package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"viewstags/internal/ingest"
	"viewstags/internal/synth"
)

// defaultMaxBatch is a daemon's batch bound unless -max-batch says
// otherwise.
var defaultMaxBatch = DefaultConfig().MaxBatch

// strictDecode is the reference the fast decoders are held to: what a
// declined body goes through.
func strictDecode(data []byte, v any) error {
	return decodeStrict(bytes.NewReader(data), v)
}

// checkFastAgainstStrict runs one route's decoders over data under the
// batch bound limit. decodeEdge answers the too-many 400 exactly when the
// first JSON value, the one the strict decode reads, holds more than limit
// elements by the route's count. When the fast decoder accepts, the
// strict decode must succeed with a DeepEqual value.
func checkFastAgainstStrict[T any](t *testing.T, shape string, data []byte, c edgeCodec[T], limit int) (accepted bool) {
	t.Helper()
	strict := 0
	var first json.RawMessage
	if json.NewDecoder(bytes.NewReader(data)).Decode(&first) == nil {
		strict = c.count(first)
	}
	rec := httptest.NewRecorder()
	var v T
	decodeEdge(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data)), new(RouteMetrics), c, limit, &v)
	var e struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &e)
	if tooMany := rec.Code == http.StatusBadRequest && e.Error == fmt.Sprintf(c.tooMany, strict, limit); tooMany != (strict > limit) {
		t.Fatalf("%s: %q: the strict count is %d under limit %d, decodeEdge answers %d %s", shape, data, strict, limit, rec.Code, rec.Body.Bytes())
	}
	var got, want T
	if !c.fast(string(data), &got) {
		return false
	}
	if err := strictDecode(data, &want); err != nil {
		t.Fatalf("%s: fast decoder accepted %q, strict decode refuses it: %v", shape, data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %q\nfast   %#v\nstrict %#v", shape, data, got, want)
	}
	return true
}

// edgeSeedAccepted are request bodies the fast decoders must accept:
// every request example in API.md for the routes they cover, in the
// spellings clients marshal them.
var edgeSeedAccepted = []string{
	`{"tags":["favela","samba"],"weighting":"idf","top":3}`,
	`{"batch":[{"tags":["pop"]},{"tags":["favela","samba"]}],"weighting":"idf","top":3}`,
	`{"tags": ["favela", "samba"], "top": 3}`,
	`{"tags":[]}`, `{"batch":[]}`, `{"batch":[{}]}`, `{}`, ` { } `,
	`{"tags":["música","東京"]}`,
	"{\n  \"events\": [\n    {\"video\": \"d-ZCcD-xHU0\", \"tags\": [\"favela\", \"samba\"],\n     \"country\": \"BR\", \"views\": 120, \"upload\": true},\n    {\"video\": \"d-ZCcD-xHU0\", \"tags\": [\"favela\", \"samba\"],\n     \"country\": \"PT\", \"views\": 11}\n  ]\n}",
	`{"events":[{"video":"gw-v","tags":["zz-gw"],"country":"KR","views":500,"upload":true}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":-0.5e-3,"upload":false}]}`,
	`{"events":[]}`,
}

// edgeSeedDeclined are the classes the fast decoders must decline, one
// body per class; the strict decoder accepts some and refuses others.
var edgeSeedDeclined = []string{
	`{"tags":["fav\u0065la"]}`,                    // escape in a string
	`{"tags":["a\"b"]}`,                           // escaped quote
	"{\"tags\":[\"a\tb\"]}",                       // control byte in a string
	"{\"tags\":[\"a\xffb\"]}",                     // invalid UTF-8
	`{"tagz":["pop"]}`,                            // unknown key
	`{"Tags":["pop"]}`,                            // case-variant key
	`{"t\u0061gs":["pop"]}`,                       // escaped key
	`{"tags":["pop"],"tags":["rock"]}`,            // duplicate key
	`{"batch":[{"tags":["a"],"tags":["b"]}]}`,     // duplicate key, nested
	`{"tags":null}`,                               // null
	`{"batch":[null]}`,                            // null element
	`{"tags":[null]}`,                             // null string
	`null`,                                        // null document
	`{"tags":["pop"],"top":1e2}`,                  // non-integer top
	`{"tags":["pop"],"top":3.0}`,                  // fraction
	`{"tags":["pop"],"top":-1}`,                   // signed
	`{"tags":["pop"],"top":03}`,                   // leading zero
	`{"tags":["pop"],"top":99999999999999999999}`, // out of range
	`{"tags":["pop"]}garbage`,                     // trailing bytes
	`{"tags":["pop"]}{"tags":["pop"]}`,            // second value
	`{"tags":["pop"]}}`,                           // trailing brace
	`{"tags":["pop"],}`,                           // trailing comma
	`{"tags":["pop",]}`,                           // trailing comma in array
	`{"tags":["pop"]`,                             // truncated
	`{"tags":"pop"}`,                              // wrong type
	`[]`, ``, ` `, `{`, `"`, `{"`, `{"tags"`, `{"tags":`, `{"tags":[`, `{"tags":["`,
	`{"events":[{"tags":["t"],"country":"US","views":1e400}]}`, // out-of-range float
	`{"events":[{"tags":["t"],"country":"US","views":01}]}`,    // leading zero
	`{"events":[{"tags":["t"],"country":"US","views":.5}]}`,    // not the JSON grammar
	`{"events":[{"tags":["t"],"country":"US","views":1.}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":+1}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":1e}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":0x10}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":NaN}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":"7"}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":1,"upload":"yes"}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":1,"upload":truex}]}`,
	`{"events":[{"tags":["t"],"country":"US","views":1,"upload":tru}]}`,
	// The shard-internal ingest body and ack were JSON once; no public
	// route takes their keys.
	`{"events":[{"video":"d-ZC","tags":["samba"],"country":"BR","views":120,"upload":true}],"uploads":["other-shards-video"]}`,
	`{"uploads":["a","b"]}`,
	`{"accepted":2,"epoch":17,"pending":2412}`,
	`{"accepted": 2, "epoch": 18446744073709551615, "pending": 0}` + "\n",
	`{"accepted":-1,"epoch":1,"pending":0}`,
	`{"accepted":1,"epoch":18446744073709551616,"pending":0}`,
	`{"accepted":1,"epoch":1,"pending":9223372036854775808}`,
}

func TestEdgeDecodeSeeds(t *testing.T) {
	accepted := func(data string) bool {
		b := []byte(data)
		return checkFastAgainstStrict(t, "predict", b, predictCodec, defaultMaxBatch) ||
			checkFastAgainstStrict(t, "ingest", b, ingestCodec, defaultMaxBatch)
	}
	for _, s := range edgeSeedAccepted {
		if !accepted(s) {
			t.Errorf("no fast decoder accepts %q", s)
		}
	}
	for _, s := range edgeSeedDeclined {
		if accepted(s) {
			t.Errorf("a fast decoder accepted %q", s)
		}
	}
}

// FuzzEdgeDecode: for arbitrary bytes no fast decoder panics, whichever
// accepts agrees with the strict encoding/json decode of the same bytes,
// and decodeEdge refuses a batch exactly when the strict count is over
// the bound. A bound of 2 puts small inputs on both sides of it.
func FuzzEdgeDecode(f *testing.F) {
	for _, s := range edgeSeedAccepted {
		f.Add([]byte(s))
	}
	for _, s := range edgeSeedDeclined {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int{2, defaultMaxBatch} {
			checkFastAgainstStrict(t, "predict", data, predictCodec, limit)
			checkFastAgainstStrict(t, "ingest", data, ingestCodec, limit)
		}
	})
}

// TestEdgeKeyTablesMatchStructTags keeps the decoder's key tables equal
// to the JSON names encoding/json derives from the struct tags, in field
// order (the decoders switch on the index).
func TestEdgeKeyTablesMatchStructTags(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{PredictRequest{}, predictRequestKeys},
		{PredictItem{}, predictItemKeys},
		{IngestRequest{}, ingestRequestKeys},
		{IngestEvent{}, ingestEventKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			names = append(names, name)
		}
		if !reflect.DeepEqual(names, c.keys) {
			t.Errorf("%s: struct tags %q, key table %q", typ, names, c.keys)
		}
	}
}

// TestEdgeFastPathCoversBenchCatalog is the measured share the codec's
// speed-up rests on: every tag list of the benchmark's catalog
// (-videos 20000 -seed 20110301), marshalled the way bench/stream.go and
// internal/scenario marshal requests, is accepted by the fast decoders.
func TestEdgeFastPathCoversBenchCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 20000-video catalog")
	}
	cfg := synth.DefaultConfig(20000)
	cfg.Seed = 20110301
	cat, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lists, declined := 0, 0
	for i := range cat.Videos {
		tags := cat.Videos[i].TagNames(cat.Vocab)
		if len(tags) == 0 {
			continue
		}
		lists++
		predict, err := json.Marshal(&PredictRequest{Weighting: "idf", Top: 3, Batch: []PredictItem{{Tags: tags}, {Tags: tags}}})
		if err != nil {
			t.Fatal(err)
		}
		ingest, err := json.Marshal(&IngestRequest{Events: []IngestEvent{
			{Video: cat.Videos[i].ID, Tags: tags, Country: "BR", Views: float64(1 + i%50), Upload: i%20 == 0}}})
		if err != nil {
			t.Fatal(err)
		}
		if !checkFastAgainstStrict(t, "predict", predict, predictCodec, defaultMaxBatch) ||
			!checkFastAgainstStrict(t, "ingest", ingest, ingestCodec, defaultMaxBatch) {
			declined++
		}
	}
	if lists == 0 || declined != 0 {
		t.Fatalf("fast decoders declined %d of %d catalog tag lists, want 0", declined, lists)
	}
	t.Logf("fast path share: %d of %d tag lists (100%%)", lists, lists)
}

// jsonEncoderBytes is the reference the encoders are held to.
func jsonEncoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// edgeRandomShare draws finite shares across 1e-12…1 plus the values the
// float format switches on.
func edgeRandomShare(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return [...]float64{1e-6, 9.999999e-7, 1e-7, 1e-9, 1.5e-10, 1e21, 1e20, 123456789.25, -2.5e-8, math.SmallestNonzeroFloat64}[rng.Intn(10)]
	default:
		return math.Pow(10, -12*rng.Float64()) * rng.Float64()
	}
}

func edgeRandomResult(rng *rand.Rand) PredictResult {
	r := PredictResult{Known: rng.Intn(2) == 0}
	switch n := rng.Intn(7); n {
	case 0: // nil Top: "top":null
	case 1:
		r.Top = []CountryShare{}
	default:
		r.Top = make([]CountryShare, n-1)
		for i := range r.Top {
			r.Top[i] = CountryShare{Country: string([]byte{'A' + byte(rng.Intn(26)), 'A' + byte(rng.Intn(26))}), Share: edgeRandomShare(rng)}
		}
	}
	return r
}

// TestEdgeEncodeMatchesEncodingJSON: the encoders' bytes equal
// json.Encoder's for random finite responses, single and batch, and for
// random acks.
func TestEdgeEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20110301))
	for i := 0; i < 3000; i++ {
		resp := PredictResponse{Weighting: [...]string{"idf", "uniform", "by-views", ""}[rng.Intn(4)]}
		switch rng.Intn(3) {
		case 0:
			r := edgeRandomResult(rng)
			resp.Result = &r
		case 1:
			resp.Results = make([]PredictResult, rng.Intn(6))
			for j := range resp.Results {
				resp.Results[j] = edgeRandomResult(rng)
			}
		}
		got, ok := appendPredictResponse(nil, &resp)
		if want := jsonEncoderBytes(t, &resp); !ok || !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("predict response (ok=%v)\n got %s\nwant %s", ok, got, want)
		}

		ack := IngestResponse{Accepted: rng.Intn(2000), Epoch: rng.Uint64() >> uint(rng.Intn(64)), Pending: rng.Int63() >> uint(rng.Intn(63))}
		if got, want := append(appendIngestResponse(nil, &ack), '\n'), jsonEncoderBytes(t, &ack); !bytes.Equal(got, want) {
			t.Fatalf("ingest ack\n got %s\nwant %s", got, want)
		}
	}
}

// TestEdgeEncodeDeclines: what encoding/json would escape, repair or
// refuse goes through encoding/json, with the reply it has always had.
func TestEdgeEncodeDeclines(t *testing.T) {
	for _, s := range []string{"a\"b", `a\b`, "<b>", "a&b", "a\nb", "\x00", "a\xffb", "a\u2028b", "a\u2029b"} {
		if _, ok := appendString(nil, s); ok {
			t.Errorf("appendString took %q", s)
		}
	}
	for _, s := range []string{"", "plain", "música", "東京", "a\x7fb", "it's"} {
		got, ok := appendString(nil, s)
		if want, _ := json.Marshal(s); !ok || !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, %v; want %s", s, got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := PredictResponse{Weighting: "idf", Result: &PredictResult{Top: []CountryShare{{Country: "BR", Share: f}}}}
		rec := httptest.NewRecorder()
		WritePredictResponse(rec, &resp)
		want := httptest.NewRecorder()
		WriteJSON(want, http.StatusOK, &resp)
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != want.Body.String() {
			t.Errorf("share %v: answered %d %s, WriteJSON answers %d %s", f, rec.Code, rec.Body, want.Code, want.Body)
		}
	}
	resp := PredictResponse{Weighting: "<idf>", Results: []PredictResult{{Known: true}}}
	rec, want := httptest.NewRecorder(), httptest.NewRecorder()
	WritePredictResponse(rec, &resp)
	WriteJSON(want, http.StatusOK, &resp)
	if rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() || !strings.Contains(rec.Body.String(), `\u003cidf\u003e`) {
		t.Errorf("escaped weighting: answered %d %s, WriteJSON answers %s", rec.Code, rec.Body, want.Body)
	}
}

// TestEdgeRepliesAreEncodingJSONBytes drives the real handlers: the
// reply to a canonical request re-encodes, through json.Encoder, to the
// bytes that were sent, with the headers WriteJSON sets; and a body the
// fast decoder declines gets the same bytes and shows on the counter.
func TestEdgeRepliesAreEncodingJSONBytes(t *testing.T) {
	srv, _, _ := freshServer(t, false, 0, time.Hour)
	h := srv.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("POST %s: Content-Length %q for %d bytes, Content-Type %q", path, got, rec.Body.Len(), rec.Header().Get("Content-Type"))
		}
		return rec
	}
	for _, body := range []string{
		`{"tags":["favela","samba"],"top":3}`,
		`{"batch":[{"tags":["pop"]},{"tags":["favela","samba"]},{"tags":["zz-unknown"]}],"weighting":"uniform","top":60}`,
	} {
		rec := post("/v1/predict", body)
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if want := jsonEncoderBytes(t, &resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("predict reply\n got %s\nwant %s", rec.Body.Bytes(), want)
		}
	}
	if n := srv.Metrics().Predict.DecodeGeneral.Load(); n != 0 {
		t.Fatalf("canonical predict bodies counted %d general decodes, want 0", n)
	}
	plain := post("/v1/predict", `{"tags":["favela","samba"],"top":3}`)
	escaped := post("/v1/predict", `{"tags":["fav\u0065la","samba"],"top":3}`)
	if !bytes.Equal(plain.Body.Bytes(), escaped.Body.Bytes()) {
		t.Fatalf("escaped tag answered %s, plain %s", escaped.Body, plain.Body)
	}
	if n := srv.Metrics().Predict.DecodeGeneral.Load(); n != 1 {
		t.Fatalf("one escaped body counted %d general decodes, want 1", n)
	}

	rec := post("/v1/ingest", `{"events":[{"video":"v1","tags":["favela"],"country":"BR","views":12,"upload":true}]}`)
	var ack IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if want := jsonEncoderBytes(t, &ack); !bytes.Equal(rec.Body.Bytes(), want) || ack.Accepted != 1 {
		t.Fatalf("ingest ack\n got %s\nwant %s", rec.Body.Bytes(), want)
	}
	post("/v1/ingest", `{"events":[{"video":"v1","tags":["fav\u0065la"],"country":"BR","views":12}]}`)
	if n := srv.Metrics().Ingest.DecodeGeneral.Load(); n != 1 {
		t.Fatalf("one escaped ingest body counted %d general decodes, want 1", n)
	}
	metrics := httptest.NewRecorder()
	h.ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range []string{
		`viewstags_edge_decode_general_total{route="predict"} 1`,
		`viewstags_edge_decode_general_total{route="ingest"} 1`,
	} {
		if !strings.Contains(metrics.Body.String(), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	var stats struct {
		Predict struct {
			General int64 `json:"edge_decode_general"`
		} `json:"predict"`
	}
	if code := do(t, srv, http.MethodGet, "/v1/stats", nil, &stats); code != http.StatusOK || stats.Predict.General != 1 {
		t.Fatalf("/v1/stats predict.edge_decode_general = %d (status %d), want 1", stats.Predict.General, code)
	}
}

// TestEdgeBodyBufferNotPinned: a body buffer that grew large is dropped,
// not pooled, and the decoded strings do not alias any pooled buffer.
func TestEdgeBodyBufferNotPinned(t *testing.T) {
	small, large := new(bytes.Buffer), new(bytes.Buffer)
	small.Grow(maxPooledBody / 2)
	large.Grow(2 * maxPooledBody)
	if !releaseBodyBuf(small) {
		t.Fatalf("a %d-byte buffer was not pooled", small.Cap())
	}
	if releaseBodyBuf(large) {
		t.Fatalf("a %d-byte buffer was pooled", large.Cap())
	}

	var req PredictRequest
	body := []byte(`{"tags":["favela","samba"]}`)
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	if !DecodePredictBody(httptest.NewRecorder(), r, &NewMetrics().Predict, defaultMaxBatch, &req) {
		t.Fatal("decode failed")
	}
	for i := 0; i < 8; i++ { // scribble over whatever the pool holds
		b := getWireBuf()
		b.WriteString(strings.Repeat("#", 64))
		defer putWireBuf(b)
	}
	if !reflect.DeepEqual(req.Tags, []string{"favela", "samba"}) {
		t.Fatalf("decoded tags changed under a reused buffer: %q", req.Tags)
	}
}

// TestIngestDoesNotPinRequestBody: the fast decoder's strings are
// substrings of the request body, and the ingest path keeps tags and
// video ids (until the fold, and a novel tag's name for good). What it
// keeps must be a copy, or each 1 MB body below would stay live for its
// one tag — both while pending and after the fold. The shard's binary
// route pads its body with a view event whose video id is just under
// 1 MB: a non-upload event's video id is never kept, so only the tag
// and the upload ids are, and they must not pin the body either.
func TestIngestDoesNotPinRequestBody(t *testing.T) {
	srv, _, comp := freshServer(t, false, 0, time.Hour)
	h := srv.Handler()
	ingestOne := func(i, pad int) {
		t.Helper()
		body := fmt.Sprintf(`{"events":[%s{"video":"pin-video-%d","tags":["pin-tag-%d"],"country":"BR","views":3,"upload":true}]}`,
			strings.Repeat(" ", pad), i, i)
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body))
		if i%2 == 1 { // the shard's route, with a bare upload announcement
			br, _ := srv.countries.Lookup("BR")
			tags := []string{fmt.Sprintf("pin-tag-%d", i)}
			events := []ingest.Event{
				{Video: strings.Repeat("p", max(pad-64, 0)), Tags: tags, Country: br, Views: 1},
				{Video: fmt.Sprintf("pin-video-%d", i), Tags: tags, Country: br, Views: 3, Upload: true},
			}
			req = ingestRequest(IngestContentType, ingestBody(events, fmt.Sprintf("pin-bare-%d", i)))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	fold := func() {
		t.Helper()
		if folded, err := comp.FoldNow(); err != nil || !folded {
			t.Fatalf("fold: folded=%v err=%v", folded, err)
		}
	}
	ingestOne(-1, 0) // warm up: one fold's worth of steady-state garbage
	fold()

	const n, pad = 16, 1 << 20
	before := heap()
	for i := 0; i < n; i++ {
		ingestOne(i, pad)
	}
	if grew := heap() - before; grew > n*pad/4 {
		t.Errorf("heap grew %d bytes over %d pending 1 MB ingests: the accumulator pins the bodies", grew, n)
	}
	fold()
	if grew := heap() - before; grew > n*pad/4 {
		t.Errorf("heap grew %d bytes after folding %d novel tags: the snapshot pins the bodies", grew, n)
	}
	if m := srv.Metrics(); m.Ingest.DecodeGeneral.Load() != 0 || m.Internal.DecodeGeneral.Load() != 0 {
		t.Fatal("a body took the general decode; this test is about the fast one")
	}
}

// TestEdgeBatchBoundedBeforeAllocating: /v1/predict and /v1/ingest refuse
// a batch over -max-batch with the 400 that names its length, and neither
// decoder holds more of it than the bound first — the fast scanner, and
// encoding/json for a body with an escape (here in the key). A body that
// fills MaxBodyBytes with empty elements allocates a small multiple of
// its size, not of its element count.
func TestEdgeBatchBoundedBeforeAllocating(t *testing.T) {
	srv, _, _ := freshServer(t, false, 0, time.Hour)
	maxBatch := srv.cfg.MaxBatch
	routes := []struct {
		path, key, elem, tooMany string
	}{
		{"/v1/predict", "batch", `{"tags":["pop"]}`, "batch of %d exceeds limit %d"},
		{"/v1/ingest", "events", `{"video":"v","tags":["pop"],"country":"BR","views":1}`, "batch of %d events exceeds limit %d"},
	}
	fill := (MaxBodyBytes - 32) / len(`{},`)
	for _, rt := range routes {
		for _, decoder := range []string{"fast", "strict"} {
			key := `"` + rt.key + `"`
			if decoder == "strict" {
				key = `"\u` + fmt.Sprintf("%04x", rt.key[0]) + rt.key[1:] + `"`
			}
			body := func(elem string, n int) []byte {
				return []byte("{" + key + ":[" + strings.TrimSuffix(strings.Repeat(elem+",", n), ",") + "]}")
			}
			for _, c := range []struct {
				name string
				body []byte
				want int
				msg  string
			}{
				{"MaxBatch elements", body(rt.elem, maxBatch), http.StatusOK, ""},
				{"MaxBatch+1 elements", body(rt.elem, maxBatch+1), http.StatusBadRequest, fmt.Sprintf(rt.tooMany, maxBatch+1, maxBatch)},
				{"empty elements filling the body", body("{}", fill), http.StatusBadRequest, fmt.Sprintf(rt.tooMany, fill, maxBatch)},
				// encoding/json decodes the first value before it sees
				// what follows it, so the batch is counted first here too.
				{"empty elements, then a trailing byte", append(body("{}", fill-1), 'x'), http.StatusBadRequest, fmt.Sprintf(rt.tooMany, fill-1, maxBatch)},
			} {
				name := fmt.Sprintf("%s %s, %s", rt.path, decoder, c.name)
				post := func() *httptest.ResponseRecorder {
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(c.body)))
					return rec
				}
				post() // warm the pools
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				rec := post()
				runtime.ReadMemStats(&after)
				var e struct {
					Error string `json:"error"`
				}
				_ = json.Unmarshal(rec.Body.Bytes(), &e)
				if rec.Code != c.want || e.Error != c.msg {
					t.Errorf("%s: %d %q, want %d %q", name, rec.Code, e.Error, c.want, c.msg)
				}
				alloc := after.TotalAlloc - before.TotalAlloc
				t.Logf("%s: %d-byte body, %d bytes allocated", name, len(c.body), alloc)
				// A batch within the bound allocates its answer; a refusal
				// may cost the body's buffer and string, and little more.
				if limit := uint64(3*len(c.body)) + 256<<10; c.want != http.StatusOK && alloc > limit {
					t.Errorf("%s: a %d-byte body allocated %d bytes, over %d", name, len(c.body), alloc, limit)
				}
			}
		}
	}
}

// TestEdgeTagListBoundedBeforeAllocating: an item's or an event's tag
// list past ingest.MaxEventTags is the route's own 400 (validTags',
// ingest.Validate's), and no decoder builds it first — the fast one, the
// strict one (a body with an escape) and /v1/place's — so a 4 MB body of
// empty tags costs a small multiple of its size, not a string header per
// tag. The single item, a batch item, a later event and a list followed
// by a trailing byte (counted first, as the batch is) all answer what the
// route's check answers for the whole list.
func TestEdgeTagListBoundedBeforeAllocating(t *testing.T) {
	srv, _, _ := freshServer(t, false, 0, time.Hour)
	const limit = ingest.MaxEventTags
	fill := (MaxBodyBytes - 64) / len(`"",`)
	list := func(tag string, n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(tag+",", n), ",") + "]"
	}
	tooMany := func(item, n int) string { return fmt.Sprintf("item %d has %d tags (limit %d)", item, n, limit) }
	tooManyEvent := func(i, n int) string { return fmt.Sprintf("ingest: event %d has %d tags, limit %d", i, n, limit) }
	event := func(key, tags string) string {
		return `{"video":"v","` + key + `":` + tags + `,"country":"BR","views":1}`
	}
	for _, c := range []struct {
		name, path, body string
		want             int
		msg              string
	}{
		{"predict fast, limit tags", "/v1/predict", `{"tags":` + list(`"pop"`, limit) + `}`, http.StatusOK, ""},
		{"predict fast, limit+1 tags", "/v1/predict", `{"tags":` + list(`"pop"`, limit+1) + `}`, http.StatusBadRequest, tooMany(0, limit+1)},
		{"predict fast, empty tags filling the body", "/v1/predict", `{"tags":` + list(`""`, fill) + `}`, http.StatusBadRequest, tooMany(0, fill)},
		{"predict fast, batch item 1", "/v1/predict", `{"batch":[{"tags":["pop"]},{"tags":` + list(`""`, fill-8) + `}]}`, http.StatusBadRequest, tooMany(1, fill-8)},
		{"predict fast, then a trailing byte", "/v1/predict", `{"tags":` + list(`""`, fill) + `}x`, http.StatusBadRequest, tooMany(0, fill)},
		{"predict strict, limit tags", "/v1/predict", `{"t\u0061gs":` + list(`"pop"`, limit) + `}`, http.StatusOK, ""},
		{"predict strict, limit+1 tags", "/v1/predict", `{"t\u0061gs":` + list(`"pop"`, limit+1) + `}`, http.StatusBadRequest, tooMany(0, limit+1)},
		{"predict strict, empty tags filling the body", "/v1/predict", `{"t\u0061gs":` + list(`""`, fill) + `}`, http.StatusBadRequest, tooMany(0, fill)},
		{"predict strict, batch item 1", "/v1/predict", `{"b\u0061tch":[{"tags":["pop"]},{"tags":` + list(`""`, fill-8) + `}]}`, http.StatusBadRequest, tooMany(1, fill-8)},
		{"ingest fast, limit tags", "/v1/ingest", `{"events":[` + event("tags", list(`"pop"`, limit)) + `]}`, http.StatusOK, ""},
		{"ingest fast, limit+1 tags", "/v1/ingest", `{"events":[` + event("tags", list(`"pop"`, limit+1)) + `]}`, http.StatusBadRequest, tooManyEvent(0, limit+1)},
		{"ingest fast, event 1 filling the body", "/v1/ingest", `{"events":[` + event("tags", `["pop"]`) + `,` + event("tags", list(`""`, fill-40)) + `]}`, http.StatusBadRequest, tooManyEvent(1, fill-40)},
		{"ingest strict, limit+1 tags", "/v1/ingest", `{"events":[` + event("t\\u0061gs", list(`"pop"`, limit+1)) + `]}`, http.StatusBadRequest, tooManyEvent(0, limit+1)},
		{"ingest strict, empty tags filling the body", "/v1/ingest", `{"events":[` + event("t\\u0061gs", list(`""`, fill-40)) + `]}`, http.StatusBadRequest, tooManyEvent(0, fill-40)},
		{"place, limit tags", "/v1/place", `{"upload":"BR","tags":` + list(`"pop"`, limit) + `}`, http.StatusOK, ""},
		{"place, limit+1 tags", "/v1/place", `{"upload":"BR","tags":` + list(`"pop"`, limit+1) + `}`, http.StatusBadRequest, tooMany(0, limit+1)},
		{"place, empty tags filling the body", "/v1/place", `{"upload":"BR","tags":` + list(`""`, fill-8) + `}`, http.StatusBadRequest, tooMany(0, fill-8)},
		{"place, then a trailing byte", "/v1/place", `{"upload":"BR","tags":` + list(`""`, fill-8) + `} x`, http.StatusBadRequest, tooMany(0, fill-8)},
	} {
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			return rec
		}
		post() // warm the pools
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := post()
		runtime.ReadMemStats(&after)
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		if rec.Code != c.want || e.Error != c.msg {
			t.Errorf("%s: %d %q, want %d %q", c.name, rec.Code, e.Error, c.want, c.msg)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d-byte body, %d bytes allocated", c.name, len(c.body), alloc)
		// The body's buffer and string, and little more.
		if limit := uint64(3*len(c.body)) + 256<<10; c.want != http.StatusOK && alloc > limit {
			t.Errorf("%s: a %d-byte body allocated %d bytes, over %d", c.name, len(c.body), alloc, limit)
		}
	}
}
