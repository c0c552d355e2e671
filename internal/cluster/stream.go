package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"viewstags/internal/server"
)

// This file is the gateway's data-plane carrier: one long-lived,
// multiplexed frame stream per shard (the shard side is
// internal/server/stream.go). A predict or ingest leg is one request
// envelope written with a single Write and one reply envelope matched
// back by stream id — no per-leg HTTP exchange, no connection pool to
// size. The stream is dialled lazily through the gateway's configured
// RoundTripper as an HTTP Upgrade, so a custom Transport (TLS, a
// reverse proxy in front of the shards, a test's connection counter)
// keeps governing how shards are reached. Control-plane calls stay
// plain HTTP on Gateway.client.

// errStreamTimeout is a leg that outlived ShardTimeout.
var errStreamTimeout = errors.New("shard stream: no reply within the shard timeout")

// errStreamClosed is a call on a stream that was cut under it or whose
// gateway has shut down.
var errStreamClosed = errors.New("shard stream: closed")

// shardStream is the gateway's stream to one shard target. It owns at
// most one connection at a time; a failed connection is dropped and the
// next call dials a fresh one.
type shardStream struct {
	target  string
	rt      http.RoundTripper
	timeout time.Duration

	// dials counts upgrade attempts; everything past the first is a
	// reconnect (viewstags_shard_stream_reconnects_total).
	dials atomic.Int64

	mu     sync.Mutex
	conn   *streamConn // current connection or in-flight dial; nil when there is none
	closed bool
}

// reconnects reports the dials after the first.
func (s *shardStream) reconnects() int64 {
	if n := s.dials.Load(); n > 1 {
		return n - 1
	}
	return 0
}

// streamConn is one upgraded connection and the calls in flight on it.
type streamConn struct {
	// ctx is the upgrade request's context: it belongs to the connection,
	// not to whichever call happened to trigger the dial, and cancel ends
	// a dial still in flight.
	ctx    context.Context
	cancel context.CancelFunc
	// ready closes when the dial finished, done when run has exited.
	ready chan struct{}
	done  chan struct{}
	// rwc is set (under mu) before ready closes and never changes
	// afterwards; nil if the dial failed.
	rwc io.ReadWriteCloser
	// wsem is the write lock, as a channel so that a caller can give up
	// waiting for it when its deadline passes behind a stuck write.
	wsem chan struct{}

	mu      sync.Mutex
	pending map[uint64]*streamWaiter
	nextID  uint64 // ids are never reused on a connection
	err     error  // non-nil once the connection is dead
}

// streamResult is what a waiter receives: a decoded reply, or the
// transport error that killed the connection under it.
type streamResult struct {
	status     int
	retryAfter string
	body       []byte
	err        error
}

// streamWaiter is the pooled per-call rendezvous: the reply slot and the
// ShardTimeout timer.
type streamWaiter struct {
	ch    chan streamResult // buffered 1: whoever removes the waiter from pending sends exactly once
	timer *time.Timer
}

var streamWaiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &streamWaiter{ch: make(chan streamResult, 1), timer: t}
}}

// streamBufPool recycles request-envelope encode buffers.
var streamBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// call runs one data-plane request over the stream: it waits for the
// reply, for ctx, or for the shard timeout — whichever comes first. A
// non-nil error is a transport-level failure (dial, write, read,
// timeout, cancellation); a shard's own non-200 comes back as a status.
//
// An envelope that cannot be built is neither: nothing reached the wire
// and the shard did nothing wrong, so it must not count against the
// shard's health. trace is the one id the gateway's own middleware
// honoured or minted, so it always fits its envelope field; that leaves
// a body past the frame limit, which is answered here with the 400 the
// shard's own body limit gives an over-long POST.
func (s *shardStream) call(ctx context.Context, path, contentType, trace string, body []byte) (status int, retryAfter string, reply []byte, err error) {
	w := streamWaiterPool.Get().(*streamWaiter)
	w.timer.Reset(s.timeout)
	defer func() {
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
		streamWaiterPool.Put(w)
	}()

	c, err := s.acquire(ctx, w)
	if err != nil {
		return 0, "", nil, err
	}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return 0, "", nil, c.err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = w
	c.mu.Unlock()

	env := server.StreamRequest{ID: id, Path: path, ContentType: contentType, RequestID: trace, Body: body}
	bufp := streamBufPool.Get().(*[]byte)
	frame, encErr := server.AppendStreamRequest((*bufp)[:0], &env)
	if encErr == nil {
		err = s.write(ctx, c, w, frame)
	}
	*bufp = frame[:0]
	streamBufPool.Put(bufp)
	if encErr != nil {
		c.abandon(id, w)
		msg, _ := json.Marshal(struct {
			Error string `json:"error"`
		}{"invalid request body: " + encErr.Error()})
		return http.StatusBadRequest, "", msg, nil
	}
	if err != nil {
		c.abandon(id, w)
		return 0, "", nil, err
	}

	select {
	case res := <-w.ch:
		return res.status, res.retryAfter, res.body, res.err
	case <-ctx.Done():
		c.abandon(id, w)
		return 0, "", nil, ctx.Err()
	case <-w.timer.C:
		c.abandon(id, w)
		return 0, "", nil, errStreamTimeout
	}
}

// acquire returns the current connection once its dial has finished,
// starting one if there is none. Concurrent callers share one dial:
// they all wait on it and all fail with it.
func (s *shardStream) acquire(ctx context.Context, w *streamWaiter) (*streamConn, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errStreamClosed
	}
	c := s.conn
	if c == nil {
		c = &streamConn{
			ready:   make(chan struct{}),
			done:    make(chan struct{}),
			wsem:    make(chan struct{}, 1),
			pending: make(map[uint64]*streamWaiter),
		}
		c.ctx, c.cancel = context.WithCancel(context.Background())
		s.conn = c
		// Its own goroutine, not the first caller's: that caller's
		// cancellation must not abandon a dial others are waiting on.
		go s.run(c)
	}
	s.mu.Unlock()
	select {
	case <-c.ready:
		return c, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-w.timer.C:
		return nil, errStreamTimeout
	}
}

// run is the connection's goroutine: it dials, then reads reply frames
// and hands each to its waiter until the connection fails or is killed.
func (s *shardStream) run(c *streamConn) {
	defer close(c.done)
	s.dials.Add(1)
	rwc, err := s.dial(c)
	if err != nil {
		s.fail(c, fmt.Errorf("shard stream: %w", err))
		close(c.ready)
		return
	}
	c.mu.Lock()
	if c.err != nil {
		// Killed while dialling, and the dial won the race anyway.
		c.mu.Unlock()
		_ = rwc.Close()
		close(c.ready)
		return
	}
	c.rwc = rwc
	c.mu.Unlock()
	close(c.ready)

	br := bufio.NewReaderSize(rwc, server.StreamReadBuf)
	var rep server.StreamReply
	for {
		n, err := server.ReadStreamFrameLen(br)
		var frame []byte
		if err == nil {
			// A fresh slice per reply: the body is handed to the caller,
			// which keeps it past this loop's next read.
			frame = make([]byte, n)
			_, err = io.ReadFull(br, frame)
		}
		if err == nil {
			err = server.DecodeStreamReply(frame, &rep)
		}
		if err != nil {
			s.fail(c, fmt.Errorf("shard stream: %w", err))
			return
		}
		c.mu.Lock()
		if w, ok := c.pending[rep.ID]; ok {
			delete(c.pending, rep.ID)
			w.ch <- streamResult{status: rep.Status, retryAfter: rep.RetryAfter, body: rep.Body}
		}
		// No waiter: the call timed out or was cancelled and abandoned
		// its id; the late reply is dropped.
		c.mu.Unlock()
	}
}

// dial upgrades one connection through the configured RoundTripper. The
// request context belongs to the connection and must outlive the dial,
// so the dial is bounded by a timer that cancels it rather than by a
// deadline.
func (s *shardStream) dial(c *streamConn) (io.ReadWriteCloser, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, s.target+server.StreamPath, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", server.StreamProtocol)
	t := time.AfterFunc(s.timeout, c.cancel)
	defer t.Stop()
	resp, err := s.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != server.StreamProtocol || !ok {
		_ = resp.Body.Close()
		return nil, fmt.Errorf("GET %s: upgrade refused (status %d)", req.URL, resp.StatusCode)
	}
	return rwc, nil
}

// write sends one frame with a single Write under the write lock.
func (s *shardStream) write(ctx context.Context, c *streamConn, w *streamWaiter, frame []byte) error {
	select {
	case c.wsem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-w.timer.C:
		return errStreamTimeout
	}
	_, err := c.rwc.Write(frame)
	<-c.wsem
	if err != nil {
		// A half-written frame desynchronizes the stream: the whole
		// connection goes, and every call in flight on it with it.
		err = fmt.Errorf("shard stream: %w", err)
		s.fail(c, err)
	}
	return err
}

// abandon gives up on a call's id. If the reader (or fail) got to the
// waiter first, its result is already in the buffered channel — both
// send under this same lock — and is drained so the pooled waiter goes
// back empty.
func (c *streamConn) abandon(id uint64, w *streamWaiter) {
	c.mu.Lock()
	_, still := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !still {
		select {
		case <-w.ch:
		default:
		}
	}
}

// fail ends a connection: it is detached from the stream so the next
// call redials, every call in flight on it gets err as a transport
// error, a dial still in flight is cancelled, and the connection is
// closed. Safe to call more than once and from any goroutine.
func (s *shardStream) fail(c *streamConn, err error) {
	s.mu.Lock()
	if s.conn == c {
		s.conn = nil
	}
	s.mu.Unlock()
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		for id, w := range c.pending {
			delete(c.pending, id)
			w.ch <- streamResult{err: err}
		}
	}
	rwc := c.rwc
	c.mu.Unlock()
	c.cancel()
	if rwc != nil {
		_ = rwc.Close()
	}
}

// reset cuts the current connection, if any: calls in flight fail with
// a transport error and the next call redials. markFail uses it when a
// shard goes down, so a revived shard is reached over a fresh
// connection rather than one that may be half-open. It returns the
// connection it cut so close can wait for its goroutine.
func (s *shardStream) reset() *streamConn {
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	if c != nil {
		s.fail(c, errStreamClosed)
	}
	return c
}

// close is reset for good: later calls fail with errStreamClosed, and
// the connection's goroutine has exited when it returns.
func (s *shardStream) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if c := s.reset(); c != nil {
		<-c.done
	}
}
