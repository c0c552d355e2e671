package server

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/tagviews"
)

// This file is the public contract both daemons serve — /v1/predict,
// /v1/ingest, /v1/tags and the /debug/traces family — written once.
// Everything a client can observe apart from the numbers is here: the
// body codec, every refusal and its message, the defaults, the reply
// shapes and their bytes, the decode and encode spans, the route
// counters. What differs between a node and a gateway is where an answer
// comes from, and that is the Backend: a node reads its snapshot and
// feeds its accumulator; the gateway (internal/cluster) resolves rows
// from its cache and its shards and splits writes by ring owner. A client
// cannot tell the two apart on these routes because there is one
// implementation to tell apart.

// Backend is the half of the public contract that differs per daemon.
// Every request reaching it has passed the contract's checks; what it
// refuses — a shed, a down shard, a disabled write path — it refuses
// with an ErrorReply, which the contract writes.
type Backend interface {
	// Countries is the country table answers are over. It does not
	// change once the daemon serves.
	Countries() *Countries
	// Predict fills out.Row(i) and out.Known[i] for every item: a
	// distribution over Countries, or the traffic prior with Known false
	// when no tag of the item carries weight. Each item has tags, none
	// longer than MaxTagLen, and there are at most MaxBatch items. r is
	// the client's request: its context bounds the work and its trace
	// (TraceFrom) takes the backend's spans.
	Predict(r *http.Request, items [][]string, w tagviews.Weighting, out *Predictions) *ErrorReply
	// Ingest applies a batch that passed ingest.Validate and answers its
	// ack: the events accepted, the fold epoch after which they are
	// visible, the attributions pending.
	Ingest(r *http.Request, events []ingest.Event) (IngestResponse, *ErrorReply)
	// TopTags lists the k highest-volume tags, highest first (fewer when
	// the vocabulary is smaller; never nil).
	TopTags(r *http.Request, k int) ([]TagInfo, *ErrorReply)
	// StitchTrace is what the processes the backend calls retained of
	// request id — the gateway's shards; nil for a node, which calls none.
	StitchTrace(ctx context.Context, id string) []ShardTraceView
}

// Edge is the public contract over one daemon's Backend, with the
// daemon's batch limit, route counters and trace ring.
type Edge struct {
	backend  Backend
	maxBatch int
	metrics  *Metrics
	traces   *obs.TraceStore
}

// NewEdge builds the contract over b. maxBatch bounds the items of a
// predict and the events of an ingest; metrics and traces are the
// daemon's own.
func NewEdge(b Backend, maxBatch int, metrics *Metrics, traces *obs.TraceStore) *Edge {
	return &Edge{backend: b, maxBatch: maxBatch, metrics: metrics, traces: traces}
}

// EdgeRoutes are the contract's rows, for a daemon's route table to
// begin with; edge returns the daemon's Edge.
func EdgeRoutes[D any](edge func(D) *Edge) []Route[D] {
	on := func(serve func(*Edge, http.ResponseWriter, *http.Request)) func(D, http.ResponseWriter, *http.Request) {
		return func(d D, w http.ResponseWriter, r *http.Request) { serve(edge(d), w, r) }
	}
	return []Route[D]{
		{Path: "/v1/predict", Method: "POST", Group: GroupPredict, Handler: on((*Edge).servePredict)},
		{Path: "/v1/ingest", Method: "POST", Group: GroupIngest, Handler: on((*Edge).serveIngest)},
		{Path: "/v1/tags", Method: "GET", Group: GroupOther, Handler: on((*Edge).serveTags)},
		{Path: "/debug/traces", Method: "GET", Group: GroupOther, Policy: Probe, Handler: on((*Edge).serveTraces)},
		{Path: "/debug/traces/", Method: "GET", Group: GroupOther, Policy: Probe, Handler: on((*Edge).serveTraces)},
	}
}

// ErrorReply is an answer that ends a request with the error envelope:
// its status, its message, and the Retry-After value sent with it ("" for
// none).
type ErrorReply struct {
	Status     int
	Msg        string
	RetryAfter string
}

// Write sends the reply.
func (e *ErrorReply) Write(w http.ResponseWriter) {
	if e.RetryAfter != "" {
		w.Header().Set("Retry-After", e.RetryAfter)
	}
	WriteError(w, e.Status, "%s", e.Msg)
}

// Countries is a daemon's country table: ISO codes in geo.CountryID
// order, which every daemon of a tier shares, and the reverse index.
type Countries struct {
	codes []string
	index map[string]geo.CountryID
}

// NewCountries indexes a country table.
func NewCountries(codes []string) *Countries {
	c := &Countries{codes: codes, index: make(map[string]geo.CountryID, len(codes))}
	for i, code := range codes {
		c.index[code] = geo.CountryID(i)
	}
	return c
}

// Len is the number of countries.
func (c *Countries) Len() int { return len(c.codes) }

// Lookup resolves an ISO code.
func (c *Countries) Lookup(code string) (geo.CountryID, bool) {
	id, ok := c.index[code]
	return id, ok
}

// Predictions is the storage a Backend's Predict fills, lent by the
// contract and pooled: per item, a row over the country table and
// whether any of the item's tags was known. The reply is rendered from
// it into pooled scratch too (topShares), so a reply costs the same
// allocations at any batch size.
type Predictions struct {
	Known []bool
	vecs  []float64
	nC    int
	items [][]string // the request's items; substrings of its body

	results []PredictResult // the reply's, one per item
	shares  []CountryShare  // every result's top list, one slab
	top     []int           // one item's top-k indices
}

// Row is item i's distribution, aliasing the slab.
func (p *Predictions) Row(i int) []float64 { return p.vecs[i*p.nC : (i+1)*p.nC : (i+1)*p.nC] }

var predictionsPool = sync.Pool{New: func() any { return new(Predictions) }}

func getPredictions(nItems, nC int) *Predictions {
	p := predictionsPool.Get().(*Predictions)
	p.nC = nC
	if cap(p.Known) < nItems {
		p.Known = make([]bool, nItems)
	}
	p.Known = p.Known[:nItems]
	if cap(p.vecs) < nItems*nC {
		p.vecs = make([]float64, nItems*nC)
	}
	p.vecs = p.vecs[:nItems*nC]
	return p
}

// putPredictions recycles p; the items go first, so a pooled value pins
// no request body.
func putPredictions(p *Predictions) {
	clear(p.items)
	p.items = p.items[:0]
	predictionsPool.Put(p)
}

// topShares renders each item's k highest-share countries (5 when k <= 0)
// into p's scratch. Every list goes into one slab of n·min(k, countries)
// entries: k is the client's, and no list is longer than the table.
func (p *Predictions) topShares(c *Countries, k int) []PredictResult {
	if k <= 0 {
		k = 5
	}
	k = min(k, c.Len())
	n := len(p.Known)
	p.results = grow(p.results, n)
	shares := grow(p.shares, n*k)
	p.shares = shares
	if cap(p.top) < c.Len()+1 { // room for any k, so TopShareInto never allocates
		p.top = make([]int, 0, c.Len()+1)
	}
	for i := range p.results {
		row := p.Row(i)
		_, top := dist.TopShareInto(p.top, row, k)
		list := shares[:len(top):len(top)]
		for j, id := range top {
			list[j] = CountryShare{Country: c.codes[id], Share: row[id]}
		}
		p.results[i] = PredictResult{Known: p.Known[i], Top: list}
		shares = shares[len(top):]
	}
	return p.results
}

func (e *Edge) servePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req PredictRequest
	if !DecodePredictBody(w, r, &e.metrics.Predict, e.maxBatch, &req) {
		return
	}
	decodeDur := time.Since(start)
	weighting, err := tagviews.ParseWeighting(req.Weighting)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	single := len(req.Tags) > 0
	if single && len(req.Batch) > 0 {
		WriteError(w, http.StatusBadRequest, "set either tags or batch, not both")
		return
	}
	if !single && len(req.Batch) == 0 {
		WriteError(w, http.StatusBadRequest, "empty request: provide tags or batch")
		return
	}
	countries := e.backend.Countries()
	n := max(len(req.Batch), 1)
	out := getPredictions(n, countries.Len())
	defer putPredictions(out)
	if single {
		out.items = append(out.items, req.Tags)
	}
	for i := range req.Batch {
		out.items = append(out.items, req.Batch[i].Tags)
	}
	// Every item is checked before any is answered (including the bound
	// the binary wire enforces), so a bad item is a 400 here and never a
	// shard decoder's refusal mid-fan-out.
	for i, tags := range out.items {
		if !validTags(w, i, tags) {
			return
		}
	}
	tr := TraceFrom(r)
	tr.Add("decode", obs.NoShard, start, decodeDur, "")
	if fe := e.backend.Predict(r, out.items, weighting, out); fe != nil {
		fe.Write(w)
		return
	}
	e.metrics.Predictions.Add(int64(n))
	results := out.topShares(countries, req.Top)
	resp := PredictResponse{Weighting: weighting.String()}
	if single {
		resp.Result = &results[0]
	} else {
		resp.Results = results
	}
	encStart := time.Now()
	WritePredictResponse(w, &resp)
	tr.Add("encode", obs.NoShard, encStart, time.Since(encStart), "")
}

func (e *Edge) serveIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !decodeEdge(w, r, &e.metrics.Ingest, ingestCodec, e.maxBatch, &req) {
		return
	}
	if len(req.Events) == 0 {
		WriteError(w, http.StatusBadRequest, "empty request: provide events")
		return
	}
	// Resolving country codes is the one event check that needs the
	// country table; the rest is ingest.Validate's.
	countries := e.backend.Countries()
	events := make([]ingest.Event, len(req.Events))
	for i := range req.Events {
		ev := &req.Events[i]
		country, ok := countries.Lookup(ev.Country)
		if !ok {
			WriteError(w, http.StatusBadRequest, "event %d: unknown country %q", i, ev.Country)
			return
		}
		events[i] = ingest.Event{Video: ev.Video, Tags: ev.Tags, Country: country, Views: ev.Views, Upload: ev.Upload}
	}
	// The whole batch is validated before any of it is applied: on the
	// gateway it is all-or-nothing across shards, so nothing may be
	// dispatched until every event would be accepted everywhere.
	if _, err := ingest.Validate(events, countries.Len()); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ack, fe := e.backend.Ingest(r, events)
	if fe != nil {
		fe.Write(w)
		return
	}
	e.metrics.Events.Add(int64(len(events)))
	writeIngestResponse(w, &ack)
}

// TagsResponse is the /v1/tags wire shape.
type TagsResponse struct {
	Tags []TagInfo `json:"tags"`
}

func (e *Edge) serveTags(w http.ResponseWriter, r *http.Request) {
	k := 20
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, "invalid k %q", v)
			return
		}
		k = n
	}
	tags, fe := e.backend.TopTags(r, k)
	if fe != nil {
		fe.Write(w)
		return
	}
	WriteJSON(w, http.StatusOK, TagsResponse{Tags: tags})
}

// The /debug/traces family: retrieval for the tail-sampled trace ring.
//
//	GET /debug/traces                 — list retained traces (filters below)
//	GET /debug/traces/{request_id}    — one trace by id, stitched with what
//	                                    the backend's callees kept of it
//
// Filters: ?route= (exact path), ?min_ms= (at least this slow),
// ?status= (ok | error | shed), ?limit= (max results).

// TracesListResponse is the GET /debug/traces wire shape.
type TracesListResponse struct {
	Count  int             `json:"count"`
	Traces []obs.TraceView `json:"traces"`
}

// StitchedTrace is the GET /debug/traces/{id} reply: the daemon's own
// trace plus each shard's retained view of the request — none on a node,
// one per shard on a gateway — so a slow fan-out leg is attributable to a
// specific shard without grepping N daemons' logs.
type StitchedTrace struct {
	obs.TraceView
	Shards []ShardTraceView `json:"shards,omitempty"`
}

// ShardTraceView is one shard's contribution to a stitched trace. Error
// explains an absent Trace: "not retained" is the common case (tail
// sampling on the shard kept other traces), anything else is a fetch
// failure.
type ShardTraceView struct {
	Shard  int            `json:"shard"`
	Target string         `json:"target"`
	Error  string         `json:"error,omitempty"`
	Trace  *obs.TraceView `json:"trace,omitempty"`
}

func (e *Edge) serveTraces(w http.ResponseWriter, r *http.Request) {
	if id := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/debug/traces"), "/"); id != "" {
		if !obs.ValidRequestID(id) {
			WriteError(w, http.StatusBadRequest, "malformed request id")
			return
		}
		v, ok := e.traces.Get(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "trace %s not retained (tail sampling keeps errors, sheds and the slowest per route)", id)
			return
		}
		st := StitchedTrace{TraceView: v}
		if r.URL.Query().Get("stitch") != "0" {
			st.Shards = e.backend.StitchTrace(r.Context(), id)
		}
		WriteJSON(w, http.StatusOK, st)
		return
	}
	f, errMsg := parseTraceFilter(r.URL.Query())
	if errMsg != "" {
		WriteError(w, http.StatusBadRequest, "%s", errMsg)
		return
	}
	views := e.traces.List(f)
	WriteJSON(w, http.StatusOK, TracesListResponse{Count: len(views), Traces: views})
}

// parseTraceFilter reads the /debug/traces query parameters. The error
// string is ready for a 400 body; empty means ok.
func parseTraceFilter(q url.Values) (obs.TraceFilter, string) {
	var f obs.TraceFilter
	f.Route = q.Get("route")
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return f, "invalid min_ms " + strconv.Quote(v)
		}
		f.MinDur = time.Duration(ms * float64(time.Millisecond))
	}
	switch st := q.Get("status"); st {
	case "", "all", "ok", "error", "shed":
		f.Status = st
	default:
		return f, "invalid status " + strconv.Quote(st) + " (want ok, error or shed)"
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return f, "invalid limit " + strconv.Quote(v)
		}
		f.Limit = n
	}
	return f, ""
}
