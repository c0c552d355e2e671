package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"viewstags/internal/bincodec"
	"viewstags/internal/obs"
)

// This file is the shard's data-plane stream: one long-lived connection
// per gateway, opened by an HTTP Upgrade on /internal/stream, carrying
// length-prefixed envelopes that each wrap one POST to /internal/predict
// or /internal/ingest. The envelope replaces only the HTTP exchange: every
// frame is dispatched into the same middleware-wrapped handler chain
// Handler() returns, so shedding, metrics, tracing, panic recovery and
// access logging have exactly one implementation. The bodies inside the
// envelopes are byte-for-byte what the POST routes take and answer.
//
// Wire layout, all integers little-endian, every frame prefixed by a u32
// byte count of what follows it:
//
//	request:  u64 stream id | u8 n, path | u8 n, content type |
//	          u16 n, request id | body (the rest)
//	reply:    u64 stream id | u16 status | u8 n, Retry-After | body (the rest)
//
// Field lengths are fixed-width and the body is whatever remains, so an
// envelope has exactly one encoding. A frame carries no span context: the
// trace it opens is a child of the gateway leg to its path, and the path
// is in the frame already (v1 spelled it out a second time, v2's rows
// frames carried a weight, v3's replies and acks spelled a shard's state
// without its incarnation, and v4's rows carried normalized fields where
// v5's carry sums; the token moves with the layouts it carries, so an
// older peer is refused the upgrade instead of misreading).

const (
	// StreamPath is the upgrade route.
	StreamPath = "/internal/stream"
	// StreamProtocol is the Upgrade token both ends must name.
	StreamProtocol = "viewstags-stream-v5"

	streamReqFixed   = 8 + 1 + 1 + 2
	streamReplyFixed = 8 + 2 + 1
	// MaxStreamFrame bounds a frame's byte count in either direction: a
	// maximal body plus maximal envelope fields. A reader checks the
	// length prefix against it before allocating anything.
	MaxStreamFrame = MaxBodyBytes + streamReqFixed + 2*255 + obs.MaxRequestIDLen
)

// streamable is the envelope path allow-list, derived from the route
// table where the table is assigned: the rows with the Streamable bit,
// and nothing else, are reachable through a stream. parent names the
// gateway leg a frame for the row is, as its trace's parent.
var streamable []streamRoute

type streamRoute struct{ path, parent string }

const jsonContentType = "application/json"

// StreamRequest is one decoded request envelope. Body aliases the frame
// it was decoded from.
type StreamRequest struct {
	ID          uint64
	Path        string
	ContentType string
	RequestID   string
	Body        []byte
	// parent is the decoded path's streamRoute.parent.
	parent string
}

// StreamReply is one decoded reply envelope. Body aliases the frame it
// was decoded from.
type StreamReply struct {
	ID         uint64
	Status     int
	RetryAfter string
	Body       []byte
}

// errStreamFrame marks a protocol violation, as opposed to an I/O error:
// bytes no envelope encoder produces. The connection that carried them
// is closed.
var errStreamFrame = errors.New("stream: bad frame")

func frameErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errStreamFrame}, args...)...)
}

// AppendStreamRequest appends r as one length-prefixed frame. It refuses
// what DecodeStreamRequest would: the two are inverses.
func AppendStreamRequest(dst []byte, r *StreamRequest) ([]byte, error) {
	if len(r.Path) > 255 || len(r.ContentType) > 255 || len(r.RequestID) > obs.MaxRequestIDLen {
		return dst, frameErrorf("envelope field too long")
	}
	n := streamReqFixed + len(r.Path) + len(r.ContentType) + len(r.RequestID) + len(r.Body)
	if n > MaxStreamFrame {
		return dst, frameErrorf("%d bytes exceed the limit %d", n, MaxStreamFrame)
	}
	w := bincodec.Writer{B: dst}
	w.U32(uint32(n))
	w.U64(r.ID)
	w.U8(byte(len(r.Path)))
	w.B = append(w.B, r.Path...)
	w.U8(byte(len(r.ContentType)))
	w.B = append(w.B, r.ContentType...)
	w.U16(uint16(len(r.RequestID)))
	w.B = append(w.B, r.RequestID...)
	return append(w.B, r.Body...), nil
}

// intern returns the shared copy of b when it is one of known — the
// values every gateway leg carries — and only otherwise allocates.
func intern(b []byte, known ...string) string {
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// DecodeStreamRequest parses one request frame (the bytes after the
// length prefix). A path off the allow-list is refused here, so nothing
// downstream ever dispatches one.
func DecodeStreamRequest(data []byte, r *StreamRequest) error {
	if len(data) < streamReqFixed || len(data) > MaxStreamFrame {
		return frameErrorf("%d bytes is no request envelope", len(data))
	}
	d := bincodec.NewReader(data)
	r.ID = d.U64()
	path := d.Bytes(int(d.U8()))
	ct := d.Bytes(int(d.U8()))
	rid := d.Bytes(int(d.U16()))
	if err := d.Err(); err != nil {
		return frameErrorf("%v", err)
	}
	i := slices.IndexFunc(streamable, func(rt streamRoute) bool { return rt.path == string(path) })
	if i < 0 {
		return frameErrorf("path %q is not a data-plane route", path)
	}
	if len(rid) > obs.MaxRequestIDLen {
		return frameErrorf("request id of %d bytes", len(rid))
	}
	r.Path, r.parent = streamable[i].path, streamable[i].parent
	r.ContentType = intern(ct, WireContentType, jsonContentType)
	r.RequestID = string(rid)
	r.Body = d.Rest()
	return nil
}

// AppendStreamReply appends r as one length-prefixed frame; the inverse
// of DecodeStreamReply.
func AppendStreamReply(dst []byte, r *StreamReply) ([]byte, error) {
	if r.Status < 100 || r.Status > 999 || len(r.RetryAfter) > 255 {
		return dst, frameErrorf("status %d, %d-byte Retry-After", r.Status, len(r.RetryAfter))
	}
	n := streamReplyFixed + len(r.RetryAfter) + len(r.Body)
	if n > MaxStreamFrame {
		return dst, frameErrorf("%d bytes exceed the limit %d", n, MaxStreamFrame)
	}
	w := bincodec.Writer{B: dst}
	w.U32(uint32(n))
	w.U64(r.ID)
	w.U16(uint16(r.Status))
	w.U8(byte(len(r.RetryAfter)))
	w.B = append(w.B, r.RetryAfter...)
	return append(w.B, r.Body...), nil
}

// DecodeStreamReply parses one reply frame (the bytes after the length
// prefix).
func DecodeStreamReply(data []byte, r *StreamReply) error {
	if len(data) < streamReplyFixed || len(data) > MaxStreamFrame {
		return frameErrorf("%d bytes is no reply envelope", len(data))
	}
	d := bincodec.NewReader(data)
	r.ID = d.U64()
	r.Status = int(d.U16())
	if r.Status < 100 || r.Status > 999 {
		return frameErrorf("status %d", r.Status)
	}
	ra := d.Bytes(int(d.U8()))
	if err := d.Err(); err != nil {
		return frameErrorf("%v", err)
	}
	r.RetryAfter = string(ra)
	r.Body = d.Rest()
	return nil
}

// ReadStreamFrameLen reads a frame's length prefix and refuses one
// longer than MaxStreamFrame before the caller allocates for it. (One
// too short for an envelope is the decoder's to refuse.)
func ReadStreamFrameLen(r io.Reader) (int, error) {
	var p [4]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return 0, err
	}
	d := bincodec.NewReader(p[:])
	n := int(d.U32())
	if n > MaxStreamFrame {
		return 0, frameErrorf("length %d exceeds the limit %d", n, MaxStreamFrame)
	}
	return n, nil
}

// StreamReadBuf sizes each end's per-connection read buffer: several
// batch-4 frames per read syscall when they arrive back to back.
const StreamReadBuf = 32 << 10

// streamSet is the server's registry of live hijacked stream
// connections. http.Server.Shutdown does not know about them, so
// graceful shutdown drains them through DrainStreams.
type streamSet struct {
	mu       sync.Mutex
	live     map[*streamConn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// streamConn is one accepted stream.
type streamConn struct {
	conn net.Conn
	// wmu serializes reply frames onto the connection: one Write each.
	wmu sync.Mutex
	// frames counts the frames in service, so that the connection closes
	// only after their replies are written. It is not a bound: admission
	// is the chain's limiter, which sheds a frame past -max-inflight with
	// 503 + Retry-After exactly as it sheds a POST.
	frames sync.WaitGroup
}

// handleStream is GET /internal/stream: it upgrades the connection and
// then serves frames on it until either side closes. It stays inside the
// mux so it works under any http.Server that serves Handler().
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !headerHasToken(r.Header.Values("Connection"), "upgrade") || !strings.EqualFold(r.Header.Get("Upgrade"), StreamProtocol) {
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", StreamProtocol)
		WriteError(w, http.StatusUpgradeRequired, "%s takes an HTTP Upgrade to %s", StreamPath, StreamProtocol)
		return
	}
	st := &s.streams
	c := &streamConn{}
	st.mu.Lock()
	if st.draining {
		st.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		st.mu.Unlock()
		WriteError(w, http.StatusInternalServerError, "cannot upgrade: %v", err)
		return
	}
	c.conn = conn
	if st.live == nil {
		st.live = make(map[*streamConn]struct{})
	}
	st.live[c] = struct{}{}
	st.wg.Add(1)
	st.mu.Unlock()
	defer func() {
		c.frames.Wait()
		_ = conn.Close()
		st.mu.Lock()
		delete(st.live, c)
		st.mu.Unlock()
		st.wg.Done()
	}()

	_ = conn.SetDeadline(time.Time{})
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+StreamProtocol+"\r\n\r\n"); err != nil {
		return
	}
	br := bufio.NewReaderSize(brw.Reader, StreamReadBuf)
	for {
		call := streamCallPool.Get().(*streamCall)
		n, err := ReadStreamFrameLen(br)
		if err == nil {
			call.frame = slices.Grow(call.frame[:0], n)[:n]
			_, err = io.ReadFull(br, call.frame)
		}
		if err == nil {
			err = DecodeStreamRequest(call.frame, &call.env)
		}
		if err != nil {
			// I/O errors are how streams end (peer closed, DrainStreams
			// woke the read); only a protocol violation is worth a line.
			if errors.Is(err, errStreamFrame) {
				s.logger.Printf("server: closing stream from %s: %v", conn.RemoteAddr(), err)
			}
			streamCallPool.Put(call)
			return
		}
		c.frames.Add(1)
		go s.serveFrame(c, call)
	}
}

// headerHasToken reports whether a comma-separated header carries token
// (case-insensitive), the way Connection lists do.
func headerHasToken(values []string, token string) bool {
	for _, v := range values {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// streamBody is a frame body as an http.Request.Body.
type streamBody struct{ bytes.Reader }

func (*streamBody) Close() error { return nil }

// streamCall is the pooled per-frame state: the request frame, the
// in-memory request dispatched into the handler chain, the writer that
// collects the handler's response, and the reply frame.
type streamCall struct {
	frame  []byte
	env    StreamRequest
	req    http.Request
	url    url.URL
	header http.Header
	vals   [2][1]string // header value slices, so setting them allocates nothing
	body   streamBody
	w      streamWriter
	out    []byte
}

var streamCallPool = sync.Pool{New: func() any {
	return &streamCall{header: make(http.Header, 3), w: streamWriter{header: make(http.Header, 4)}}
}}

// streamWriter is the in-memory ResponseWriter behind a frame. As over
// HTTP, the status and headers are final once the handler commits them.
// parent is the frame's trace parent, which the trace middleware reads
// off the writer it is handed.
type streamWriter struct {
	header http.Header
	reply  StreamReply
	body   []byte
	parent string
}

func (w *streamWriter) Header() http.Header { return w.header }

func (w *streamWriter) WriteHeader(code int) {
	if w.reply.Status == 0 && code >= 200 {
		w.reply.Status = code
		w.reply.RetryAfter = w.header.Get("Retry-After")
	}
}

func (w *streamWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// serveFrame runs one envelope through the handler chain and writes its
// reply frame.
func (s *Server) serveFrame(c *streamConn, call *streamCall) {
	env := &call.env
	clear(call.header)
	call.vals = [2][1]string{{env.ContentType}, {env.RequestID}}
	call.header["Content-Type"] = call.vals[0][:]
	if env.RequestID != "" {
		call.header[obs.TraceHeader] = call.vals[1][:]
	}
	call.url = url.URL{Path: env.Path}
	call.body.Reset(env.Body)
	call.req = http.Request{
		Method:        http.MethodPost,
		URL:           &call.url,
		Header:        call.header,
		Body:          &call.body,
		ContentLength: int64(len(env.Body)),
	}
	w := &call.w
	clear(w.header)
	w.reply = StreamReply{ID: env.ID}
	w.body = w.body[:0]
	w.parent = env.parent

	s.handler.ServeHTTP(w, &call.req)

	w.WriteHeader(http.StatusOK)
	w.reply.Body = w.body
	var err error
	if call.out, err = AppendStreamReply(call.out[:0], &w.reply); err != nil {
		// A reply the gateway's reader would refuse (over the frame
		// limit) must not go out: answer this id with an error instead
		// of costing every other call its connection.
		msg, _ := json.Marshal(errorResponse{Error: err.Error(), RequestID: env.RequestID})
		call.out, _ = AppendStreamReply(call.out[:0], &StreamReply{ID: env.ID, Status: http.StatusInternalServerError, Body: msg})
	}
	c.wmu.Lock()
	_, err = c.conn.Write(call.out)
	c.wmu.Unlock()
	if err != nil {
		// The read loop notices the closed connection and winds down.
		_ = c.conn.Close()
	}
	streamCallPool.Put(call)
	c.frames.Done()
}

// DrainStreams ends every data-plane stream gracefully: no further
// frames are read, the frames in flight are answered, then each
// connection closes. New upgrades are refused from here on. When ctx
// ends first the remaining connections are cut. Serve calls it after
// http.Server.Shutdown, which does not track hijacked connections.
func (s *Server) DrainStreams(ctx context.Context) {
	st := &s.streams
	st.mu.Lock()
	st.draining = true
	for c := range st.live {
		// Wakes the read loop out of its blocking read.
		_ = c.conn.SetReadDeadline(time.Now())
	}
	st.mu.Unlock()
	done := make(chan struct{})
	go func() {
		st.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		st.mu.Lock()
		for c := range st.live {
			_ = c.conn.Close()
		}
		st.mu.Unlock()
	}
}
