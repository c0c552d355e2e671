package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/profilestore"
	"viewstags/internal/tagviews"
)

// dialStream upgrades a raw connection to base's /internal/stream.
func dialStream(t *testing.T, base string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_, err = io.WriteString(conn, "GET "+StreamPath+" HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: "+StreamProtocol+"\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != StreamProtocol {
		t.Fatalf("upgrade answered %d (Upgrade: %q)", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
	return conn, br
}

// readReply reads one reply frame off a stream.
func readReply(t *testing.T, conn net.Conn, br *bufio.Reader) StreamReply {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := ReadStreamFrameLen(br)
	if err != nil {
		t.Fatalf("reading reply length: %v", err)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		t.Fatal(err)
	}
	var rep StreamReply
	if err := DecodeStreamReply(frame, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func mustFrame(t *testing.T, r StreamRequest) []byte {
	t.Helper()
	frame, err := AppendStreamRequest(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestStreamCarriesTheHandlerChain: a frame answers byte-for-byte what
// the POST route answers, ids match replies to requests out of order,
// and the frames show up in the same route metrics and trace ring an
// HTTP call would — each trace a child of the gateway leg its path
// names, which no frame spells out.
func TestStreamCarriesTheHandlerChain(t *testing.T) {
	_, srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	conn, br := dialStream(t, ts.URL)

	body := AppendPredictRequest(nil, [][]string{{"favela", "samba"}, {"pop"}}, tagviews.WeightIDF, false)
	want := postFrame(srv, WireContentType, body)
	before := srv.Metrics().Internal.Requests.Load()

	var out []byte
	out = append(out, mustFrame(t, StreamRequest{ID: 7, Path: "/internal/predict", ContentType: WireContentType,
		RequestID: "stream-chain-7", Body: body})...)
	out = append(out, mustFrame(t, StreamRequest{ID: 8, Path: "/internal/predict", ContentType: jsonContentType,
		RequestID: "stream-chain-8", Body: []byte("{}")})...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]StreamReply{}
	for i := 0; i < 2; i++ {
		rep := readReply(t, conn, br)
		rep.Body = append([]byte(nil), rep.Body...)
		got[rep.ID] = rep
	}
	if rep := got[7]; rep.Status != http.StatusOK || !bytes.Equal(rep.Body, want.Body.Bytes()) {
		t.Fatalf("frame 7: status %d, body differs from POST /internal/predict (%d vs %d bytes)", rep.Status, len(rep.Body), want.Body.Len())
	}
	if rep := got[8]; rep.Status != http.StatusUnsupportedMediaType {
		t.Fatalf("frame 8 (JSON content type): status %d, want 415 from the real handler", rep.Status)
	}
	if n := srv.Metrics().Internal.Requests.Load() - before; n != 2 {
		t.Fatalf("internal route counted %d requests for 2 frames", n)
	}
	// Errors are always retained by the tail sampler, so the refused
	// frame is the one to look up.
	tr, ok := srv.Traces().Get("stream-chain-8")
	if !ok {
		t.Fatal("frame's request id is not in the trace ring")
	}
	if tr.Parent != "gateway/internal/predict" || tr.Route != "/internal/predict" {
		t.Fatalf("trace route %q parent %q", tr.Route, tr.Parent)
	}
	if _, err := conn.Write(mustFrame(t, StreamRequest{ID: 9, Path: "/internal/ingest", ContentType: jsonContentType,
		RequestID: "stream-chain-9", Body: []byte("{}")})); err != nil {
		t.Fatal(err)
	}
	if rep := readReply(t, conn, br); rep.Status != http.StatusServiceUnavailable {
		t.Fatalf("frame 9 (ingest on a read-only node): status %d, want 503", rep.Status)
	}
	if tr, ok := srv.Traces().Get("stream-chain-9"); !ok || tr.Parent != "gateway/internal/ingest" {
		t.Fatalf("ingest frame's trace: %v parent %q", ok, tr.Parent)
	}
	// Over plain HTTP there is no leg, so no parent.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/internal/predict", strings.NewReader("{}"))
	req.Header.Set(obs.TraceHeader, "stream-chain-http")
	srv.Handler().ServeHTTP(rec, req)
	if tr, ok := srv.Traces().Get("stream-chain-http"); !ok || tr.Parent != "" {
		t.Fatalf("POST's trace: %v parent %q, want none", ok, tr.Parent)
	}
}

// TestStreamUpgradeRefusals: the route answers plain HTTP errors to
// anything that is not the upgrade it serves, and holds no limiter slot
// or latency sample while a stream is open.
func TestStreamUpgradeRefusals(t *testing.T) {
	_, srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != StreamProtocol {
		t.Fatalf("plain GET: %d (Upgrade: %q), want 426 naming the protocol", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
	resp, err = http.Post(ts.URL+StreamPath, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: %d, want 405", resp.StatusCode)
	}
	// A peer of an earlier layout is refused the upgrade rather than
	// misread: v1's frames carried a span-context field, v2's rows a
	// weight under a weighting byte, v3's replies no incarnation, v4's
	// rows normalized fields.
	for _, old := range []string{"viewstags-stream-v1", "viewstags-stream-v2", "viewstags-stream-v3", "viewstags-stream-v4"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+StreamPath, nil)
		req.Header.Set("Connection", "Upgrade")
		req.Header.Set("Upgrade", old)
		if resp, err = http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != StreamProtocol {
			t.Fatalf("%s upgrade: %d (Upgrade: %q), want 426 naming %s", old, resp.StatusCode, resp.Header.Get("Upgrade"), StreamProtocol)
		}
	}

	inflight := srv.Metrics().InFlight.Load()
	other := srv.Metrics().Internal.Requests.Load()
	dialStream(t, ts.URL)
	if got := srv.Metrics().InFlight.Load(); got != inflight {
		t.Fatalf("an open stream holds %d in-flight slots", got-inflight)
	}
	if got := srv.Metrics().Internal.Requests.Load(); got != other {
		t.Fatal("the upgrade itself was counted as an internal request")
	}
}

// TestStreamBadFramesCloseTheConnection is failure mode (g): a path off
// the allow-list, an oversized length and a truncated envelope each end
// the connection — no reply, no panic, and no allocation sized by the
// peer's claim.
func TestStreamBadFramesCloseTheConnection(t *testing.T) {
	_, srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	meta := mustFrame(t, StreamRequest{ID: 1, Path: "/internal/predict", ContentType: jsonContentType})
	meta = bytes.Replace(meta, []byte("/internal/predict"), []byte("/internal/metaaaa"), 1)
	huge := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFF0)
	short := mustFrame(t, StreamRequest{ID: 2, Path: "/internal/ingest", ContentType: jsonContentType, RequestID: "abc"})
	short[4+8+1+len("/internal/ingest")] = 200 // content-type length runs past the frame

	for name, frame := range map[string][]byte{"path": meta, "oversized": huge, "truncated": short} {
		conn, br := dialStream(t, ts.URL)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: connection not closed after a bad frame (read err %v)", name, err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: handling the bad frame allocated %d bytes", name, grew)
		}
	}
	// The node is unharmed: a fresh stream still serves.
	conn, br := dialStream(t, ts.URL)
	body := AppendPredictRequest(nil, [][]string{{"pop"}}, tagviews.WeightIDF, false)
	if _, err := conn.Write(mustFrame(t, StreamRequest{ID: 3, Path: "/internal/predict", ContentType: WireContentType, Body: body})); err != nil {
		t.Fatal(err)
	}
	if rep := readReply(t, conn, br); rep.ID != 3 || rep.Status != http.StatusOK {
		t.Fatalf("fresh stream after bad ones: id %d status %d", rep.ID, rep.Status)
	}
}

// gateJournal blocks every Append until released — the handle tests use
// to hold an ingest frame in flight.
type gateJournal struct {
	entered chan struct{}
	release chan struct{}
}

func newGateJournal() *gateJournal {
	return &gateJournal{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (j *gateJournal) Append(uint64, []ingest.Event, []string) error {
	j.entered <- struct{}{}
	<-j.release
	return nil
}

// TestStreamGracefulShutdownAnswersInFlightFrames is failure mode (f):
// when the daemon is told to stop, a frame already being served still
// gets its reply before the stream closes, and Serve returns cleanly.
func TestStreamGracefulShutdownAnswersInFlightFrames(t *testing.T) {
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
	cfg.Logger = log.New(io.Discard, "", 0)
	srv, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ingest.NewAccumulator(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	journal := newGateJournal()
	acc.SetJournal(journal)
	if err := srv.EnableIngest(acc, time.Second); err != nil {
		t.Fatal(err)
	}
	srv.SetReady()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 5*time.Second) }()

	conn, br := dialStream(t, "http://"+ln.Addr().String())
	body := ingestBody([]ingest.Event{
		{Video: "drain-1", Tags: []string{"zz-drain"}, Country: country(t, srv, "JP"), Views: 3, Upload: true},
	})
	if _, err := conn.Write(mustFrame(t, StreamRequest{ID: 41, Path: "/internal/ingest", ContentType: IngestContentType, Body: body})); err != nil {
		t.Fatal(err)
	}
	<-journal.entered // the frame is inside its handler

	stop()
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) with a frame still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(journal.release)

	rep := readReply(t, conn, br)
	var ack IngestAck
	if rep.ID != 41 || rep.Status != http.StatusOK || DecodeIngestAck(rep.Body, &ack) != nil || ack.Accepted != 1 {
		t.Fatalf("in-flight frame across shutdown: id %d status %d body %q", rep.ID, rep.Status, rep.Body)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("stream not closed after the drain (read err %v)", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the streams drained")
	}
}

// TestStreamShedFrameCarriesErrorEnvelope: a frame the limiter sheds is
// answered with the same JSON envelope a shed POST gets — the request id
// the envelope named, Retry-After in the reply frame — so the gateway
// never has to guess at a text/plain body.
func TestStreamShedFrameCarriesErrorEnvelope(t *testing.T) {
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
	srv, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ingest.NewAccumulator(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	journal := newGateJournal()
	acc.SetJournal(journal)
	if err := srv.EnableIngest(acc, time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	conn, br := dialStream(t, ts.URL)

	held := ingestBody(nil, "shed-frame-video")
	if _, err := conn.Write(mustFrame(t, StreamRequest{ID: 1, Path: "/internal/ingest", ContentType: IngestContentType, Body: held})); err != nil {
		t.Fatal(err)
	}
	<-journal.entered // the one slot is taken
	predict := AppendPredictRequest(nil, [][]string{{"pop"}}, tagviews.WeightIDF, false)
	if _, err := conn.Write(mustFrame(t, StreamRequest{ID: 2, Path: "/internal/predict", ContentType: WireContentType,
		RequestID: "shed-frame-2", Body: predict})); err != nil {
		t.Fatal(err)
	}
	rep := readReply(t, conn, br)
	var e errorResponse
	if err := json.Unmarshal(rep.Body, &e); err != nil {
		t.Fatalf("shed frame body %q is not the error envelope: %v", rep.Body, err)
	}
	if rep.ID != 2 || rep.Status != http.StatusServiceUnavailable || rep.RetryAfter != "1" ||
		e.Error != "server at capacity" || e.RequestID != "shed-frame-2" {
		t.Fatalf("shed frame: id %d status %d Retry-After %q envelope %+v", rep.ID, rep.Status, rep.RetryAfter, e)
	}
	close(journal.release)
	if rep := readReply(t, conn, br); rep.ID != 1 || rep.Status != http.StatusOK {
		t.Fatalf("held frame: id %d status %d body %q", rep.ID, rep.Status, rep.Body)
	}
}

// TestJSONRepliesCarryContentLength: every JSON and binary reply is
// sized up front, so net/http never falls back to chunked encoding for
// bodies past its 2 KB buffer (a 32-item batch is ~5 KB at the edge).
func TestJSONRepliesCarryContentLength(t *testing.T) {
	res, srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	names := res.Analysis.TagNames()
	var req PredictRequest
	items := make([][]string, 32)
	for i := range items {
		items[i] = names[i*3 : i*3+3]
		req.Batch = append(req.Batch, PredictItem{Tags: items[i]})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	check := func(path, contentType string, body []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(raw) <= 2048 {
			t.Fatalf("%s: status %d, %d bytes — not the large reply this test needs", path, resp.StatusCode, len(raw))
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
			t.Fatalf("%s: Transfer-Encoding %v, Content-Length %d for a %d-byte body",
				path, resp.TransferEncoding, resp.ContentLength, len(raw))
		}
	}
	check("/v1/predict", "application/json", body)
	check("/internal/predict", WireContentType, AppendPredictRequest(nil, items, tagviews.WeightIDF, false))
}

// TestWriteJSONEncodeErrorIs500: a value that cannot be encoded answers
// a whole 500 envelope, not a 200 with half a body.
func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]any{"bad": func() {}})
	var e errorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("unencodable value: status %d body %q", rec.Code, rec.Body)
	}
}

// FuzzStreamEnvelope: neither envelope decoder may panic or allocate
// beyond its input on arbitrary bytes; whatever decodes re-encodes to
// the identical frame (every envelope has one encoding, so a length
// field that disagrees with the frame is refused, not normalized); and
// encode→decode is the identity.
func FuzzStreamEnvelope(f *testing.F) {
	seed := func(frame []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	seed(AppendStreamRequest(nil, &StreamRequest{ID: 1, Path: "/internal/predict", ContentType: WireContentType,
		RequestID: "a1b2,c3d4", Body: []byte("VTIPRQ01\x00\x03\x01\x01\x03pop")}))
	seed(AppendStreamRequest(nil, &StreamRequest{ID: 1 << 40, Path: "/internal/ingest", ContentType: "text/plain", Body: []byte(`{"uploads":["v"]}`)}))
	seed(AppendStreamReply(nil, &StreamReply{ID: 9, Status: 503, RetryAfter: "1", Body: []byte(`{"error":"server at capacity"}`)}))
	seed(AppendStreamReply(nil, &StreamReply{ID: 2, Status: 200}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req StreamRequest
		if err := DecodeStreamRequest(data, &req); err == nil {
			again, err := AppendStreamRequest(nil, &req)
			if err != nil || !bytes.Equal(again[4:], data) || int(binary.LittleEndian.Uint32(again)) != len(data) {
				t.Fatalf("request re-encode mismatch (%v):\n in  %v\n out %v", err, data, again)
			}
			var back StreamRequest
			if err := DecodeStreamRequest(again[4:], &back); err != nil || back.ID != req.ID || back.Path != req.Path ||
				back.ContentType != req.ContentType || back.RequestID != req.RequestID ||
				back.parent != req.parent || !bytes.Equal(back.Body, req.Body) {
				t.Fatalf("request round trip: %v: %+v != %+v", err, back, req)
			}
		}
		var rep StreamReply
		if err := DecodeStreamReply(data, &rep); err == nil {
			again, err := AppendStreamReply(nil, &rep)
			if err != nil || !bytes.Equal(again[4:], data) {
				t.Fatalf("reply re-encode mismatch (%v):\n in  %v\n out %v", err, data, again)
			}
		}
	})
}

// TestStreamEnvelopeRefusals pins the decoder's refusals by name.
func TestStreamEnvelopeRefusals(t *testing.T) {
	good := mustFrame(t, StreamRequest{ID: 5, Path: "/internal/ingest", ContentType: jsonContentType, RequestID: "r", Body: []byte("{}")})[4:]
	var req StreamRequest
	if err := DecodeStreamRequest(good, &req); err != nil || req.ID != 5 || string(req.Body) != "{}" {
		t.Fatalf("good frame: %v %+v", err, req)
	}
	for n := 0; n < len(good)-2; n++ { // every cut before the body is a truncation
		if err := DecodeStreamRequest(good[:n], &req); err == nil {
			t.Fatalf("frame cut to %d bytes decoded", n)
		}
	}
	for _, path := range []string{"/internal/meta", "/v1/predict", "/internal/transfer/adopt", "", "/internal/predict/"} {
		frame, err := AppendStreamRequest(nil, &StreamRequest{Path: path, ContentType: jsonContentType})
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeStreamRequest(frame[4:], &req); err == nil {
			t.Fatalf("path %q passed the allow-list", path)
		}
	}
	if _, err := AppendStreamRequest(nil, &StreamRequest{Path: "/internal/predict", Body: make([]byte, MaxStreamFrame)}); err == nil {
		t.Fatal("encoder produced a frame over the limit")
	}
	var rep StreamReply
	for _, status := range []int{0, 99, 1000} {
		frame, err := AppendStreamReply(nil, &StreamReply{ID: 1, Status: 200})
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(frame[4+8:], uint16(status))
		if err := DecodeStreamReply(frame[4:], &rep); err == nil {
			t.Fatalf("reply status %d decoded", status)
		}
		if _, err := AppendStreamReply(nil, &StreamReply{ID: 1, Status: status}); err == nil {
			t.Fatalf("reply status %d encoded", status)
		}
	}
	for _, n := range []uint32{MaxStreamFrame + 1, 1 << 31} {
		if _, err := ReadStreamFrameLen(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, n))); err == nil {
			t.Fatalf("frame length %d accepted", n)
		}
	}
}

// TestStreamFrameRequestIDBound: the envelope's request id meets the same
// rule as the X-Request-Id header, because a frame runs the same trace
// middleware: the error envelope in the reply names the id when it is
// well-formed and a generated one otherwise. An id past the bound is not
// a frame either end produces or accepts.
func TestStreamFrameRequestIDBound(t *testing.T) {
	_, srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	conn, br := dialStream(t, ts.URL)
	env := StreamRequest{Path: "/internal/predict", ContentType: jsonContentType, Body: []byte("{}")}
	for i, tc := range requestIDCases {
		if len(tc.id) > obs.MaxRequestIDLen {
			continue // not a frame: refused below
		}
		env.ID, env.RequestID = uint64(i+1), tc.id
		if _, err := conn.Write(mustFrame(t, env)); err != nil {
			t.Fatal(err)
		}
		rep := readReply(t, conn, br)
		var e errorResponse
		if err := json.Unmarshal(rep.Body, &e); err != nil || rep.Status != http.StatusUnsupportedMediaType {
			t.Fatalf("%s: status %d body %q (%v), want the 415 error envelope", tc.name, rep.Status, rep.Body, err)
		}
		wantRequestID(t, tc.name, tc.id, e.RequestID, tc.honoured)
	}

	env.RequestID = strings.Repeat("x", obs.MaxRequestIDLen+1)
	if _, err := AppendStreamRequest(nil, &env); err == nil {
		t.Fatal("an id one byte past the bound encoded")
	}
	// The same by hand, for the decoder: grow a maximal id by one byte. Its
	// u16 length sits after the stream id and the two u8-counted fields.
	env.RequestID = env.RequestID[1:]
	data := mustFrame(t, env)[4:]
	at := 8 + 1 + len(env.Path) + 1 + len(env.ContentType)
	binary.LittleEndian.PutUint16(data[at:], obs.MaxRequestIDLen+1)
	data = slices.Insert(data, at+2, 'x')
	var back StreamRequest
	if err := DecodeStreamRequest(data, &back); err == nil || !strings.Contains(err.Error(), "request id of") {
		t.Fatalf("an id one byte past the bound decoded as %+v (%v)", back, err)
	}
}

// TestStreamOversizedReplyIsA500: a reply too large for a frame costs
// that one call a 500, not every call its connection.
func TestStreamOversizedReplyIsA500(t *testing.T) {
	res, fix := fixture(t)
	cfg := DefaultConfig()
	cfg.MaxBatch = 1 << 15
	srv, err := New(cfg, fix.store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	conn, br := dialStream(t, ts.URL)

	// Enough known single-tag items that the partial rows alone pass
	// the frame limit, in a request far below it.
	items := make([][]string, MaxStreamFrame/(8*res.World.N())+1)
	for i := range items {
		items[i] = []string{"pop"}
	}
	big := AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
	small := AppendPredictRequest(nil, items[:2], tagviews.WeightIDF, false)
	out := mustFrame(t, StreamRequest{ID: 1, Path: "/internal/predict", ContentType: WireContentType, Body: big})
	out = append(out, mustFrame(t, StreamRequest{ID: 2, Path: "/internal/predict", ContentType: WireContentType, Body: small})...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	status := map[uint64]int{}
	for i := 0; i < 2; i++ {
		rep := readReply(t, conn, br)
		status[rep.ID] = rep.Status
	}
	if status[1] != http.StatusInternalServerError || status[2] != http.StatusOK {
		t.Fatalf("statuses %v, want 500 for the oversized reply and 200 for its neighbour", status)
	}
}
