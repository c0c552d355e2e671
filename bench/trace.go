package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// The traced run records, from this file alone, one span at each layer
// boundary a request crosses:
//
//	client.request → gateway.handler → cluster.leg → shard.handler
//	client.request → server.handler                   (lone node)
//
// Spans of one request share the X-Request-Id the caller sets, which
// the gateway already propagates to its shard legs. Nothing inside the
// program is touched: the wrappers sit around http.Handlers and the
// GatewayConfig.Transport hook.
const (
	spanClient  = "client.request"
	spanGateway = "gateway.handler"
	spanLeg     = "cluster.leg"
	spanShard   = "shard.handler"
	spanServer  = "server.handler"
)

var spanParent = map[string]string{
	spanGateway: spanClient,
	spanLeg:     spanGateway,
	spanShard:   spanLeg,
	spanServer:  spanClient,
}

// spanRec is one recorded span. Start and End are ns since the
// recorder was made.
type spanRec struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Route  string `json:"route,omitempty"`
	Shard  int    `json:"shard"` // -1 unless the span belongs to one shard
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is a preallocated span buffer: add claims a slot with one
// atomic increment and never allocates or locks, so recording costs
// the request path as little as it can.
type recorder struct {
	epoch time.Time
	spans []spanRec
	n     atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]spanRec, capacity)}
}

func (r *recorder) add(s spanRec) {
	if i := r.n.Add(1) - 1; int(i) < len(r.spans) {
		s.Parent = spanParent[s.Name]
		r.spans[i] = s
	}
}

// recorded returns the spans taken so far and how many did not fit.
func (r *recorder) recorded() (spans []spanRec, dropped int) {
	n := int(r.n.Load())
	if n > len(r.spans) {
		return r.spans, n - len(r.spans)
	}
	return r.spans[:n], 0
}

// dumpSpans writes spans to path as JSON, atomically.
func dumpSpans(path string, spans []spanRec) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, raw)
}

// writeFileAtomic writes data beside path and renames it into place,
// so a reader never sees half a file.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort; the write error is what matters
	}
	return err
}

// spanHandler records one span around next for every request that
// carries a trace id.
func spanHandler(rec *recorder, name string, shard int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Since(rec.epoch).Nanoseconds()
		next.ServeHTTP(w, r)
		rec.add(spanRec{Trace: id, Name: name, Route: r.URL.Path, Shard: shard,
			Start: start, End: time.Since(rec.epoch).Nanoseconds()})
	})
}

// spanTransport records one cluster.leg span per gateway→shard call:
// from the send to the close of the reply body, which is the leg the
// gateway waits for. Health polls carry no trace id and are skipped.
type spanTransport struct {
	base    http.RoundTripper
	rec     *recorder
	shardOf map[string]int // shard index by host:port
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := req.Header.Get("X-Request-Id")
	if id == "" {
		return t.base.RoundTrip(req)
	}
	s := spanRec{Trace: id, Name: spanLeg, Route: req.URL.Path, Shard: t.shardOf[req.URL.Host],
		Start: time.Since(t.rec.epoch).Nanoseconds()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = time.Since(t.rec.epoch).Nanoseconds()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, span: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	span spanRec
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.span.End = time.Since(b.rec.epoch).Nanoseconds()
		b.rec.add(b.span)
	})
	return err
}

// inproc is the in-process twin of the real topologies: a lone node
// and three shards behind a gateway, on loopback listeners, built the
// way cmd/serve and cmd/gateway build theirs.
type inproc struct {
	nodeURL    string
	gatewayURL string
	gateway    *cluster.Gateway
	stops      []func()
}

func (p *inproc) close() {
	for i := len(p.stops) - 1; i >= 0; i-- {
		p.stops[i]()
	}
}

// newInproc builds the topology. With rec non-nil every boundary is
// wrapped to record spans; with rec nil nothing is wrapped, which is
// the run tracing overhead is measured against.
func newInproc(d *dataset, rec *recorder) (*inproc, error) {
	p := &inproc{}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	one, err := cluster.NewRing(1, 0)
	if err != nil {
		return nil, err
	}
	if p.nodeURL, err = p.serveNode(d, one, 0, 1, rec, spanServer); err != nil {
		return nil, err
	}
	ring, err := cluster.NewRing(clusterShards, 0)
	if err != nil {
		return nil, err
	}
	targets := make([]string, clusterShards)
	shardOf := map[string]int{}
	for i := range targets {
		if targets[i], err = p.serveNode(d, ring, i, clusterShards, rec, spanShard); err != nil {
			return nil, err
		}
		shardOf[strings.TrimPrefix(targets[i], "http://")] = i
	}
	cfg := cluster.DefaultGatewayConfig()
	if rec != nil {
		// The pool the gateway sizes for itself (2 x MaxInFlight
		// connections per shard), under the wrapper.
		perHost := 2 * cfg.MaxInFlight
		cfg.Transport = &spanTransport{rec: rec, shardOf: shardOf, base: &http.Transport{
			MaxIdleConns:        perHost * clusterShards,
			MaxIdleConnsPerHost: perHost,
		}}
	}
	if p.gateway, err = cluster.NewGateway(cfg, targets); err != nil {
		return nil, err
	}
	if err := p.gateway.Sync(context.Background()); err != nil {
		return nil, err
	}
	h := p.gateway.Handler()
	if rec != nil {
		h = spanHandler(rec, spanGateway, -1, h)
	}
	ts := httptest.NewServer(h)
	p.stops = append(p.stops, ts.Close)
	p.gatewayURL = ts.URL
	ok = true
	return p, nil
}

// serveNode starts one server.Server (a shard of the ring, or the
// whole vocabulary when count is 1) with live ingest, and returns its
// URL.
func (p *inproc) serveNode(d *dataset, ring *cluster.Ring, index, count int, rec *recorder, spanName string) (string, error) {
	srv, stop, err := newServer(d, ring, index, count)
	if err != nil {
		return "", err
	}
	p.stops = append(p.stops, stop)
	h := srv.Handler()
	if rec != nil {
		shard := -1
		if count > 1 {
			shard = index
		}
		h = spanHandler(rec, spanName, shard, h)
	}
	ts := httptest.NewServer(h)
	p.stops = append(p.stops, ts.Close)
	return ts.URL, nil
}

// newServer builds one ready server.Server over the dataset the way
// cmd/serve does: an owned snapshot, an accumulator and a compactor
// folding every 500 ms. stop ends the compactor.
func newServer(d *dataset, ring *cluster.Ring, index, count int) (srv *server.Server, stop func(), err error) {
	var owns func(string) bool
	if count > 1 {
		owns = func(name string) bool { return ring.Owns(name, index) }
	}
	snap, err := profilestore.BuildOwned(d.res.Analysis, owns)
	if err != nil {
		return nil, nil, err
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		return nil, nil, err
	}
	cfg := server.DefaultConfig()
	cfg.ShardIndex, cfg.ShardCount = index, count
	cfg.RingSignature = ring.Signature()
	cfg.Topology = ring
	if srv, err = server.New(cfg, store); err != nil {
		return nil, nil, err
	}
	acc, err := ingest.NewAccumulator(store, 1<<20)
	if err != nil {
		return nil, nil, err
	}
	const foldEvery = 500 * time.Millisecond
	if err := srv.EnableIngest(acc, foldEvery); err != nil {
		return nil, nil, err
	}
	comp, err := ingest.NewCompactor(acc, foldEvery, func(deltas []profilestore.TagDelta, n int) error {
		return srv.ApplyDeltas(deltas, n, tagviews.WeightIDF)
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		comp.Run(ctx)
	}()
	srv.SetReady()
	return srv, func() { cancel(); <-done }, nil
}
