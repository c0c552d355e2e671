package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"viewstags/internal/bincodec"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/persist"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/tagviews"
)

// ingestBody is a binary /internal/ingest body.
func ingestBody(events []ingest.Event, uploads ...string) []byte {
	var w bincodec.Writer
	ingest.AppendBatch(&w, events, uploads)
	return w.B
}

// ingestRequest is a POST /internal/ingest with the given content type
// and raw body.
func ingestRequest(contentType string, body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, InternalIngestPath, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	return req
}

// postInternalIngest drives one binary POST /internal/ingest through the
// handler stack.
func postInternalIngest(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, ingestRequest(IngestContentType, body))
	return rec
}

// country resolves an ISO code against srv's country table.
func country(t *testing.T, srv *Server, code string) geo.CountryID {
	t.Helper()
	id, ok := srv.countries.Lookup(code)
	if !ok {
		t.Fatalf("no country %q", code)
	}
	return id
}

// postFrame drives one POST /internal/predict through the handler
// stack with the given content type and raw body.
func postFrame(srv *Server, contentType string, frame []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/internal/predict", bytes.NewReader(frame))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// TestInternalPredictPartials: the shard-internal predict answers the
// exact partial quantities profilestore.PredictPartialInto computes —
// weight mass and unnormalized sum per item, ordering preserved.
func TestInternalPredictPartials(t *testing.T) {
	res, srv := fixture(t)
	snap := srv.store.Load()
	nC := res.World.N()

	items := [][]string{{"favela", "samba"}, {"zz-unknown"}, {"pop"}}
	rec := postFrame(srv, WireContentType, AppendPredictRequest(nil, items, tagviews.WeightIDF, false))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp PredictPartials
	if err := DecodePredictResponse(rec.Body.Bytes(), &resp, len(items), nC); err != nil {
		t.Fatal(err)
	}
	if resp.Weighting != tagviews.WeightIDF || resp.NItems != 3 || resp.NC != nC {
		t.Fatalf("response shape: weighting %v, %d items of %d countries", resp.Weighting, resp.NItems, resp.NC)
	}
	if resp.Version.Records != snap.Records() || resp.Version.Incarnation != srv.incarnation.Load() {
		t.Fatalf("version %+v, want records %d under incarnation %d", resp.Version, snap.Records(), srv.incarnation.Load())
	}

	buf := make([]float64, nC)
	wantW := snap.PredictPartialInto(buf, []string{"favela", "samba"}, tagviews.WeightIDF)
	if resp.WSums[0] != wantW {
		t.Fatalf("weight sum %v, want %v", resp.WSums[0], wantW)
	}
	for c := range buf {
		if math.Abs(resp.Sums[c]-buf[c]) > 1e-15 {
			t.Fatalf("country %d: wire sum %v, direct %v", c, resp.Sums[c], buf[c])
		}
	}
	// Unknown-everywhere item: zero mass, an absent (all-zero) row.
	if resp.WSums[1] != 0 {
		t.Fatalf("unknown item weight sum %v, want 0", resp.WSums[1])
	}
	for c, x := range resp.Sums[nC : 2*nC] {
		if x != 0 {
			t.Fatalf("unknown item country %d carries %v, want an absent row", c, x)
		}
	}
	if resp.WSums[2] <= 0 {
		t.Fatalf("known item after an unknown one lost its mass: %v", resp.WSums[2])
	}
}

func TestInternalPredictErrors(t *testing.T) {
	_, srv := fixture(t)
	badWeighting := AppendPredictRequest(nil, [][]string{{"pop"}}, tagviews.WeightIDF, false)
	badWeighting[9] = 0xEE // the weighting byte follows the 8-byte magic and the flags
	// Flags bit 1 once announced a shard exclusion list; it is an
	// unknown bit now, and the refusal says so.
	const unknownBits = "unknown bits"
	cases := []struct {
		name        string
		contentType string
		body        []byte
		want        int
		msg         string // in the error, when set
	}{
		{"no items", WireContentType, AppendPredictRequest(nil, nil, tagviews.WeightIDF, false), http.StatusBadRequest, ""},
		{"empty item", WireContentType, AppendPredictRequest(nil, [][]string{{}}, tagviews.WeightIDF, false), http.StatusBadRequest, ""},
		{"bad weighting", WireContentType, badWeighting, http.StatusBadRequest, ""},
		{"exclusion flag over an empty list", WireContentType, []byte(emptyExcludeFrame), http.StatusBadRequest, unknownBits},
		{"exclusion flag over an empty list, one item", WireContentType, []byte("VTIPRQ01\x02\x02\x00\x01\x01\x03pop"), http.StatusBadRequest, unknownBits},
		{"rows frame with an exclusion list", WireContentType, []byte(rowsExcludeFrame), http.StatusBadRequest, unknownBits},
		{"JSON body", "application/json", []byte(`{"items":[["pop"]]}`), http.StatusUnsupportedMediaType, ""},
		{"no content type", "", AppendPredictRequest(nil, [][]string{{"pop"}}, tagviews.WeightIDF, false), http.StatusUnsupportedMediaType, ""},
	}
	for _, c := range cases {
		rec := postFrame(srv, c.contentType, c.body)
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != c.want || err != nil || e.Error == "" || !strings.Contains(e.Error, c.msg) {
			t.Errorf("%s: status %d (want %d), envelope %q (%v)", c.name, rec.Code, c.want, rec.Body, err)
		}
	}
	if code := do(t, srv, http.MethodGet, "/internal/predict", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d, want 405", code)
	}
}

// TestInternalPredictBoundsItemCount: /internal/predict refuses an item
// count above MaxBatch before allocating for it, so what one frame makes
// the shard allocate stays a small multiple of the frame itself, plus
// the reply's own cost (nC floats an item, written into the encoder and
// the recorder). The last frame is as many zero-tag items as fill the
// body cap: decoded first and checked after, it cost 24 bytes an item.
func TestInternalPredictBoundsItemCount(t *testing.T) {
	_, srv := fixture(t)
	maxBatch := srv.cfg.MaxBatch
	pops := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "pop"
		}
		return out
	}
	items := func(n int) [][]string {
		out := make([][]string, n)
		for i, tag := range pops(n) {
			out[i] = []string{tag}
		}
		return out
	}
	// nItems uvarint, then that many zero-tag items of one byte each,
	// up to the body cap.
	header := AppendPredictRequest(nil, nil, tagviews.WeightIDF, false)[:10]
	fill := MaxBodyBytes - len(header) - binary.MaxVarintLen64
	fills := binary.AppendUvarint(header, uint64(fill))
	fills = append(fills, make([]byte, fill)...)
	cases := []struct {
		name  string
		frame []byte
		want  int
	}{
		{"0 items", AppendPredictRequest(nil, nil, tagviews.WeightIDF, false), http.StatusBadRequest},
		{"1 item", AppendPredictRequest(nil, items(1), tagviews.WeightIDF, false), http.StatusOK},
		{"MaxBatch items", AppendPredictRequest(nil, items(maxBatch), tagviews.WeightIDF, false), http.StatusOK},
		{"MaxBatch rows", AppendRowsRequest(nil, pops(maxBatch)), http.StatusOK},
		{"MaxBatch+1 items", AppendPredictRequest(nil, items(maxBatch+1), tagviews.WeightIDF, false), http.StatusBadRequest},
		{"MaxBatch+1 rows", AppendRowsRequest(nil, pops(maxBatch+1)), http.StatusBadRequest},
		{"items filling the body", fills, http.StatusBadRequest},
	}
	for _, c := range cases {
		postFrame(srv, WireContentType, c.frame) // warm the pools
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := postFrame(srv, WireContentType, c.frame)
		runtime.ReadMemStats(&after)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.want, rec.Body)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d-byte frame, %d bytes allocated", c.name, len(c.frame), alloc)
		if limit := uint64(2*len(c.frame)+8*rec.Body.Len()) + 256<<10; alloc > limit {
			t.Errorf("%s: a %d-byte frame allocated %d bytes, over %d", c.name, len(c.frame), alloc, limit)
		}
	}
}

// TestInternalMeta: the topology contract a gateway syncs against.
func TestInternalMeta(t *testing.T) {
	res, srv := fixture(t)
	var meta InternalMetaResponse
	if code := do(t, srv, http.MethodGet, "/internal/meta", nil, &meta); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if meta.Index != 0 || meta.Shards != 1 {
		t.Fatalf("standalone identity %d/%d, want 0/1", meta.Index, meta.Shards)
	}
	if len(meta.Countries) != res.World.N() || len(meta.Prior) != res.World.N() {
		t.Fatalf("globals shape: %d countries, %d prior", len(meta.Countries), len(meta.Prior))
	}
	if meta.Tags != srv.store.Load().NumTags() {
		t.Fatalf("tags %d, want %d", meta.Tags, srv.store.Load().NumTags())
	}
	if code := do(t, srv, http.MethodPost, "/internal/meta", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST meta: %d, want 405", code)
	}
}

// TestServerDerivesItsRing: a node built from its shard index, shard
// count and replica count alone derives the ring a gateway builds from the
// same numbers. /internal/meta and /metrics report that ring's signature,
// and the transfer routes answer over it: an export holds exactly the
// tags the destination owns and this replica is assigned to send.
func TestServerDerivesItsRing(t *testing.T) {
	res, _ := fixture(t)
	want, err := ring.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := profilestore.BuildOwned(res.Analysis, func(name string) bool { return want.Owns(name, 1) })
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ShardIndex, cfg.ShardCount, cfg.Replicas = 1, 3, 2
	srv, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}

	var meta InternalMetaResponse
	if code := do(t, srv, http.MethodGet, "/internal/meta", nil, &meta); code != http.StatusOK {
		t.Fatalf("/internal/meta: status %d", code)
	}
	if meta.Index != 1 || meta.Shards != 3 || meta.Replicas != 2 || meta.RingSignature != want.Signature() {
		t.Fatalf("/internal/meta reports shard %d of %d, R=%d, ring %q; want 1 of 3, R=2, ring %q",
			meta.Index, meta.Shards, meta.Replicas, meta.RingSignature, want.Signature())
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if label := `ring_signature="` + want.Signature() + `"`; !strings.Contains(rec.Body.String(), label) {
		t.Fatalf("/metrics carries no %s", label)
	}

	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(TransferExportRequest{DestShards: 3, DestReplicas: 2, DestIndex: 0}); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/internal/transfer/export", &body))
	if rec.Code != http.StatusOK {
		t.Fatalf("/internal/transfer/export: status %d: %s", rec.Code, rec.Body)
	}
	_, data, err := persist.ReadSnapshot(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, p := range data.Profiles {
		got[p.Name] = true
	}
	sent := 0
	for _, p := range snap.ExportFiltered(func(string) bool { return true }).Profiles {
		name := p.Name
		keep := want.Owns(name, 0) && want.Assign(name, nil) == 1
		if got[name] != keep {
			t.Fatalf("tag %q exported %v, want %v", name, got[name], keep)
		}
		if keep {
			sent++
		}
	}
	if sent == 0 || sent != len(got) {
		t.Fatalf("export holds %d tags, %d of them expected", len(got), sent)
	}
}

// TestServerRefusesADisagreeingRing: Config.RingSignature and
// Config.Topology are not independent settings. A value that agrees with
// the ring New derives is accepted; one that does not is refused.
func TestServerRefusesADisagreeingRing(t *testing.T) {
	_, base := fixture(t)
	derived, err := ring.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ring.New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		sig    string
		topo   *ring.Ring
		refuse bool
	}{
		{"agreeing signature and topology", derived.Signature(), derived, false},
		{"disagreeing signature", other.Signature(), nil, true},
		{"disagreeing topology", "", other, true},
		{"agreeing signature, disagreeing topology", derived.Signature(), other, true},
	} {
		cfg := DefaultConfig()
		cfg.ShardIndex, cfg.ShardCount, cfg.Replicas = 1, 3, 2
		cfg.RingSignature, cfg.Topology = c.sig, c.topo
		if _, err := New(cfg, base.store); (err != nil) != c.refuse {
			t.Errorf("%s: New error %v, want refused %v", c.name, err, c.refuse)
		}
	}
}

// TestInternalIngest: owned-tag events and bare upload announcements
// both land, sharing one per-epoch record dedup, and the binary ack
// reports them.
func TestInternalIngest(t *testing.T) {
	srv, _, comp := freshServer(t, false, 0, time.Hour)
	rec := postInternalIngest(srv, ingestBody([]ingest.Event{
		{Video: "ci-1", Tags: []string{"zz-ci-tag"}, Country: country(t, srv, "JP"), Views: 10, Upload: true},
	}, "ci-2", "ci-3"))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != IngestContentType {
		t.Fatalf("status %d, Content-Type %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	var resp IngestAck
	if err := DecodeIngestAck(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 || resp.Pending != 1 {
		t.Fatalf("ack %+v, want 3 accepted, 1 pending", resp)
	}
	before := srv.store.Load().Records()
	if folded, err := comp.FoldNow(); err != nil || !folded {
		t.Fatalf("fold: %v folded=%v", err, folded)
	}
	if got := srv.store.Load().Records(); got != before+3 {
		t.Fatalf("records %d, want %d (+1 event upload, +2 announcements)", got, before+3)
	}
	var pr PredictResponse
	if do(t, srv, http.MethodPost, "/v1/predict", PredictRequest{Tags: []string{"zz-ci-tag"}, Top: 1}, &pr); pr.Result == nil || !pr.Result.Known {
		t.Fatalf("folded internal event not served: %+v", pr)
	}
}

// uploadFailJournal accepts every journal append except one that
// carries upload announcements, and counts what it accepted.
type uploadFailJournal struct{ records int }

func (j *uploadFailJournal) Append(_ uint64, _ []ingest.Event, uploads []string) error {
	if len(uploads) > 0 {
		return errors.New("injected upload append failure")
	}
	j.records++
	return nil
}

// TestInternalIngestAllOrNothing: a batch of events plus announcements
// is one journal record, so a journal that refuses it leaves nothing
// applied and answers 503 + Retry-After — not a 400 after the events
// half already landed, which a retrying gateway would count twice.
func TestInternalIngestAllOrNothing(t *testing.T) {
	srv, acc, _ := freshServer(t, false, 0, time.Hour)
	j := &uploadFailJournal{}
	acc.SetJournal(j)
	rec := postInternalIngest(srv, ingestBody([]ingest.Event{{Video: "aon-1", Tags: []string{"zz-aon"}, Country: country(t, srv, "JP"), Views: 1}}, "aon-2"))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q; want 503 with a Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	if st := acc.Stats(); st.Pending != 0 || st.Events != 0 {
		t.Fatalf("stats %+v after a refused batch, want nothing pending or applied", st)
	}
	if j.records != 0 {
		t.Fatalf("%d records journaled for a refused batch, want 0", j.records)
	}
}

// TestInternalTagCountsBoundedBeforeAllocation: a per-item tag count is
// checked against its bound before the item's tags are allocated. An
// /internal/ingest event and a plain predict item may carry MaxEventTags,
// and a rows item exactly one tag; a body claiming more is a 400 that
// allocates a small multiple of itself. Decoding 2^20 empty tags first used to cost 16 bytes of
// string header per body byte.
func TestInternalTagCountsBoundedBeforeAllocation(t *testing.T) {
	srv, _, _ := freshServer(t, false, 0, time.Hour)
	event := func(tags int) []byte {
		return ingestBody([]ingest.Event{{Video: "tc", Tags: make([]string, tags), Country: country(t, srv, "JP"), Views: 1}})
	}
	// A rows frame's header and one item, whose tag count is 2^20 and
	// whose tags are all empty.
	rows := binary.AppendUvarint(AppendRowsRequest(nil, []string{"x"})[:len(wireReqMagic)+2], 1<<20)
	rows = append(rows, make([]byte, 1<<20)...)
	// A plain frame's header (its weighting byte included) and one item of
	// tags empty tags.
	plain := func(tags int) []byte {
		b := binary.AppendUvarint(AppendPredictRequest(nil, [][]string{{"x"}}, tagviews.WeightIDF, false)[:len(wireReqMagic)+3], uint64(tags))
		return append(b, make([]byte, tags)...)
	}
	ingestPost := func(body []byte) *httptest.ResponseRecorder { return postInternalIngest(srv, body) }
	predictPost := func(body []byte) *httptest.ResponseRecorder { return postFrame(srv, WireContentType, body) }
	for _, c := range []struct {
		name string
		post func([]byte) *httptest.ResponseRecorder
		body []byte
	}{
		{"ingest event claiming MaxEventTags+1 tags", ingestPost, event(ingest.MaxEventTags + 1)},
		{"ingest event claiming 2^20 tags", ingestPost, event(1 << 20)},
		{"rows item claiming 2^20 tags", predictPost, rows},
		{"plain item claiming MaxEventTags+1 tags", predictPost, plain(ingest.MaxEventTags + 1)},
		{"plain item claiming 2^20 tags", predictPost, plain(1 << 20)},
	} {
		c.post(c.body) // warm the pools
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := c.post(c.body)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, rec.Code, rec.Body)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d-byte body, %d bytes allocated: %s", c.name, len(c.body), alloc, strings.TrimSpace(rec.Body.String()))
		if limit := uint64(2*len(c.body)) + 256<<10; alloc > limit {
			t.Errorf("%s: a %d-byte body allocated %d bytes, over %d", c.name, len(c.body), alloc, limit)
		}
	}
}

func TestInternalIngestErrors(t *testing.T) {
	srv, acc, _ := freshServer(t, false, 0, time.Hour)
	jp := country(t, srv, "JP")
	good := ingestBody([]ingest.Event{{Video: "e-1", Tags: []string{"zz-e"}, Country: jp, Views: 1}})
	// One event past MaxBatch, and nothing after the count: refused by the
	// bound, before the events are allocated (ingest's
	// TestReadBatchRefusesBeforeAllocating measures that).
	var overCount bincodec.Writer
	overCount.Uvarint(uint64(srv.cfg.MaxBatch) + 1)
	nonCanonical := append([]byte{0x81, 0x00}, good[1:]...) // the event count 1, spelled in two bytes
	cases := []struct {
		name        string
		contentType string
		body        []byte
		want        int
	}{
		{"empty", IngestContentType, ingestBody(nil), http.StatusBadRequest},
		{"empty upload id", IngestContentType, ingestBody(nil, ""), http.StatusBadRequest},
		{"bad event", IngestContentType, ingestBody([]ingest.Event{{Country: jp, Views: 1}}), http.StatusBadRequest},
		{"JSON body", "application/json", []byte(`{"uploads":["x"]}`), http.StatusUnsupportedMediaType},
		{"no content type", "", good, http.StatusUnsupportedMediaType},
		{"event count over MaxBatch", IngestContentType, overCount.B, http.StatusBadRequest},
		{"truncated", IngestContentType, good[:len(good)-1], http.StatusBadRequest},
		{"trailing bytes", IngestContentType, append(append([]byte(nil), good...), 0), http.StatusBadRequest},
		{"non-canonical count", IngestContentType, nonCanonical, http.StatusBadRequest},
		{"country out of range", IngestContentType, ingestBody([]ingest.Event{{Tags: []string{"zz-e"}, Country: geo.CountryID(srv.countries.Len()), Views: 1}}), http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, ingestRequest(c.contentType, c.body))
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != c.want || err != nil || e.Error == "" {
			t.Errorf("%s: status %d (want %d), envelope %q (%v)", c.name, rec.Code, c.want, rec.Body, err)
		}
	}
	if st := acc.Stats(); st.Events != 0 || st.Pending != 0 {
		t.Fatalf("refused bodies moved the accumulator: %+v", st)
	}
	if code := do(t, srv, http.MethodGet, "/internal/ingest", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d, want 405", code)
	}
	// Read-only daemon: internal ingest is disabled like the public one.
	res, _ := fixture(t)
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := New(DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	if rec := postInternalIngest(bare, ingestBody(nil, "x")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("read-only internal ingest: %d, want 503", rec.Code)
	}
}

// TestRetryAfterDerivation is the regression test for the hardcoded
// Retry-After bug: the limiter hints 1s (capacity frees as soon as any
// in-flight request finishes), while ingest backpressure hints the
// configured fold interval rounded up — the time that actually clears
// the buffer.
func TestRetryAfterDerivation(t *testing.T) {
	// Limiter path: saturate a 1-slot server.
	res, _ := fixture(t)
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	small, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	inside := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inside)
		<-hold
	})
	h := Mount(small.mw, small, stubTable(blocked))
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/predict", nil))
	}()
	<-inside
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", nil))
	close(hold)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("limiter shed: code=%d Retry-After=%q, want 503/\"1\"", rec.Code, rec.Header().Get("Retry-After"))
	}

	// Ingest path: a 2-attribution buffer with a 2500ms fold interval
	// must hint ceil(2.5s) = 3 seconds.
	srv, _, _ := freshServer(t, false, 2, 2500*time.Millisecond)
	fill := IngestRequest{Events: []IngestEvent{
		{Tags: []string{"a"}, Country: "US", Views: 1},
		{Tags: []string{"b"}, Country: "US", Views: 1},
	}}
	if code := do(t, srv, http.MethodPost, "/v1/ingest", fill, nil); code != http.StatusOK {
		t.Fatalf("fill: %d", code)
	}
	for _, path := range []string{"/v1/ingest", "/internal/ingest"} {
		req := httptest.NewRequest(http.MethodPost, path,
			jsonBody(t, IngestRequest{Events: []IngestEvent{{Tags: []string{"c"}, Country: "US", Views: 1}}}))
		if path == InternalIngestPath {
			req = ingestRequest(IngestContentType, ingestBody([]ingest.Event{{Tags: []string{"c"}, Country: country(t, srv, "US"), Views: 1}}))
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s overflow: %d, want 503", path, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != "3" {
			t.Fatalf("%s Retry-After %q, want \"3\" (ceil of the 2.5s fold interval)", path, got)
		}
	}
}

// TestEmptyInputsRejected pins empty-input behavior across the three
// write/read entry points: an explicitly empty tags, batch, or events
// list is a 400 — never an empty 200, and never an epoch bump.
func TestEmptyInputsRejected(t *testing.T) {
	srv, acc, _ := freshServer(t, false, 0, time.Hour)
	epochBefore := acc.Epoch()
	eventsBefore := acc.Stats().Events
	cases := []struct {
		name string
		path string
		req  any
	}{
		{"predict empty tags", "/v1/predict", map[string]any{"tags": []string{}}},
		{"predict empty batch", "/v1/predict", map[string]any{"batch": []any{}}},
		{"predict both empty", "/v1/predict", map[string]any{"tags": []string{}, "batch": []any{}}},
		{"ingest empty events", "/v1/ingest", map[string]any{"events": []any{}}},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := do(t, srv, http.MethodPost, c.path, c.req, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		} else if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
	if acc.Epoch() != epochBefore || acc.Stats().Events != eventsBefore {
		t.Fatal("empty requests moved the accumulator (epoch or event count)")
	}
}

// TestInternalPredictLabelNeverLeadsContent: a gateway keeps the rows of
// a reply under the epoch the reply is labelled with, so a label may
// trail the snapshot the rows were computed from (the rows are fetched
// again once the gateway sees the next epoch) but must never lead it —
// rows labelled E computed before fold E would look current for a whole
// epoch. Every fold here adds exactly 100 views to one tag, so under
// by-views weighting the tag's weight at rank 0 IS 100 × the number of
// folds its row has seen; predicts race the fold loop and each reply's
// weight must cover its label.
func TestInternalPredictLabelNeverLeadsContent(t *testing.T) {
	const tag, folds, readers = "zz-label-race", 400, 2
	srv, acc, comp := freshServer(t, false, 0, time.Hour)
	frame := AppendPredictRequest(nil, [][]string{{tag}}, tagviews.WeightByViews, false)
	nC := srv.store.Load().World().N()

	done := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			var resp PredictPartials
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				rec := postFrame(srv, WireContentType, frame)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
				if err := DecodePredictResponse(rec.Body.Bytes(), &resp, 1, nC); err != nil {
					errs <- err
					return
				}
				if seen := resp.WSums[0] / 100; seen < float64(resp.Version.Epoch) {
					errs <- fmt.Errorf("reply labelled epoch %d carries a row that has seen %v folds", resp.Version.Epoch, seen)
					return
				}
			}
		}()
	}
	for i := 0; i < folds; i++ {
		if code := do(t, srv, http.MethodPost, "/v1/ingest", IngestRequest{Events: []IngestEvent{
			{Tags: []string{tag}, Country: "JP", Views: 100},
		}}, nil); code != http.StatusOK {
			t.Fatalf("ingest %d: %d", i, code)
		}
		if folded, err := comp.FoldNow(); err != nil || !folded {
			t.Fatalf("fold %d: %v %v", i, folded, err)
		}
	}
	close(done)
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if acc.Epoch() != folds {
		t.Fatalf("epoch %d after %d folds", acc.Epoch(), folds)
	}
}

// TestInternalPredictIncarnationNeverLeadsContent is the same rule for
// the incarnation: a transfer install swaps the snapshot and then moves
// the incarnation, and a reply reads the incarnation before the snapshot,
// so a reply stating at least the incarnation an import's reply stated
// carries that import's rows. Import k sets the tag's views to
// 100·(k+1), and rows requests race the imports.
func TestInternalPredictIncarnationNeverLeadsContent(t *testing.T) {
	const tag, imports, readers = "zz-inc-race", 200, 2
	dst, _, _ := freshServer(t, false, 0, time.Hour)
	src, _, srcComp := freshServer(t, false, 0, time.Hour)
	nC := dst.store.Load().World().N()
	frame := AppendRowsRequest(nil, []string{tag})
	type reply struct {
		inc   uint64
		views float64
	}
	done := make(chan struct{})
	replies := make(chan []reply, readers)
	for r := 0; r < readers; r++ {
		go func() {
			var got []reply
			var pp PredictPartials
			for {
				select {
				case <-done:
					replies <- got
					return
				default:
				}
				rec := postFrame(dst, WireContentType, frame)
				if rec.Code == http.StatusOK && DecodePredictResponse(rec.Body.Bytes(), &pp, 1, nC) == nil {
					got = append(got, reply{pp.Version.Incarnation, pp.WSums[0]})
				}
			}
		}()
	}
	incs := make([]uint64, imports)
	for k := range incs {
		if code := do(t, src, http.MethodPost, "/v1/ingest", IngestRequest{Events: []IngestEvent{
			{Tags: []string{tag}, Country: "JP", Views: 100},
		}}, nil); code != http.StatusOK {
			t.Fatalf("ingest %d: %d", k, code)
		}
		if _, err := srcComp.FoldNow(); err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		slice := src.store.Load().ExportFiltered(func(name string) bool { return name == tag })
		if err := persist.WriteSnapshot(&body, persist.CheckpointMeta{}, slice); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/internal/transfer/import", &body)
		req.Header.Set("Content-Type", TransferContentType)
		rec := httptest.NewRecorder()
		dst.Handler().ServeHTTP(rec, req)
		var ack TransferImportResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("import %d: %d %s", k, rec.Code, rec.Body)
		}
		incs[k] = ack.Version.Incarnation
	}
	close(done)
	n := 0
	for r := 0; r < readers; r++ {
		for _, got := range <-replies {
			n++
			for k := imports - 1; k >= 0; k-- { // the newest import the label covers
				if incs[k] <= got.inc {
					if want := float64(100 * (k + 1)); got.views < want {
						t.Fatalf("reply under import %d's incarnation carries %v views, want at least %v", k, got.views, want)
					}
					break
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no reply raced the imports")
	}
}

// TestPredictTagListsBounded: a predict item's tag list is bounded as an
// event's is — no empty tag, at most ingest.MaxEventTags tags — on
// /v1/predict, single and batched, on a plain /internal/predict frame,
// and on /v1/place's tags, whose empty list still takes the home
// fallback.
func TestPredictTagListsBounded(t *testing.T) {
	_, srv := fixture(t)
	tags := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("bound-%d", i)
		}
		return out
	}
	withEmpty := []string{"pop", ""}
	over := tags(ingest.MaxEventTags + 1)
	for _, c := range []struct {
		name string
		path string
		req  any
		want int
	}{
		{"predict empty tag", "/v1/predict", PredictRequest{Tags: withEmpty}, http.StatusBadRequest},
		{"predict MaxEventTags+1 tags", "/v1/predict", PredictRequest{Tags: over}, http.StatusBadRequest},
		{"predict MaxEventTags tags", "/v1/predict", PredictRequest{Tags: tags(ingest.MaxEventTags)}, http.StatusOK},
		{"batch item with an empty tag", "/v1/predict", PredictRequest{Batch: []PredictItem{{Tags: []string{"pop"}}, {Tags: withEmpty}}}, http.StatusBadRequest},
		{"batch item with MaxEventTags+1 tags", "/v1/predict", PredictRequest{Batch: []PredictItem{{Tags: []string{"pop"}}, {Tags: over}}}, http.StatusBadRequest},
		{"place empty tag", "/v1/place", PlaceRequest{Upload: "US", Tags: withEmpty}, http.StatusBadRequest},
		{"place MaxEventTags+1 tags", "/v1/place", PlaceRequest{Upload: "US", Tags: over}, http.StatusBadRequest},
		{"place without tags", "/v1/place", PlaceRequest{Upload: "US"}, http.StatusOK},
	} {
		if code := do(t, srv, http.MethodPost, c.path, c.req, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
	for _, items := range [][][]string{{{"pop"}, withEmpty}, {over}} {
		if rec := postFrame(srv, WireContentType, AppendPredictRequest(nil, items, tagviews.WeightIDF, false)); rec.Code != http.StatusBadRequest {
			t.Errorf("plain frame of %d items, the last of %d tags: status %d, want 400", len(items), len(items[len(items)-1]), rec.Code)
		}
	}
}
