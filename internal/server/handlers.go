package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"viewstags/internal/geocache"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/persist"
	"viewstags/internal/placement"
	"viewstags/internal/tagviews"
)

// MaxBodyBytes bounds request bodies; a maximal batch of tag lists fits
// comfortably. Exported so tests outside the package can size a body
// against the bound the daemons enforce.
const MaxBodyBytes = 4 << 20

// CountryShare is one (country, share) pair of a predicted
// distribution, ISO alpha-2 on the wire.
type CountryShare struct {
	Country string  `json:"country"`
	Share   float64 `json:"share"`
}

// PredictItem is one video's tag list inside a batched predict call.
type PredictItem struct {
	Tags []string `json:"tags"`
}

// PredictRequest is the /v1/predict wire request. Exactly one of Tags
// (single) or Batch must be set.
type PredictRequest struct {
	Tags      []string      `json:"tags,omitempty"`
	Batch     []PredictItem `json:"batch,omitempty"`
	Weighting string        `json:"weighting,omitempty"` // uniform | by-views | idf (default)
	Top       int           `json:"top,omitempty"`       // countries returned per result (default 5)
}

// PredictResult is one video's prediction.
type PredictResult struct {
	// Known reports whether any tag was found; false means the result
	// is the traffic-prior fallback.
	Known bool           `json:"known"`
	Top   []CountryShare `json:"top"`
}

// PredictResponse is the /v1/predict wire response: Result for a single
// call, Results for a batch.
type PredictResponse struct {
	Weighting string          `json:"weighting"`
	Result    *PredictResult  `json:"result,omitempty"`
	Results   []PredictResult `json:"results,omitempty"`
}

// PlaceRequest is the /v1/place wire request.
type PlaceRequest struct {
	Tags      []string `json:"tags,omitempty"`
	Upload    string   `json:"upload"`             // uploader country, ISO alpha-2
	Strategy  string   `json:"strategy,omitempty"` // home | popular | predicted (default)
	Replicas  int      `json:"replicas,omitempty"` // default 3
	Weighting string   `json:"weighting,omitempty"`
}

// PlaceResponse is the /v1/place wire response.
type PlaceResponse struct {
	Strategy string   `json:"strategy"`
	Known    bool     `json:"known"` // whether tag demand informed the answer
	Replicas []string `json:"replicas"`
}

// PreloadRequest is the /v1/preload wire request.
type PreloadRequest struct {
	Country   string `json:"country"`             // ISO alpha-2
	Policy    string `json:"policy,omitempty"`    // pop-push | tag-push (default)
	Slots     int    `json:"slots,omitempty"`     // default 64
	Weighting string `json:"weighting,omitempty"` // uniform | by-views | idf (default); tag-push ranks by it
}

// PreloadResponse is the /v1/preload wire response: the video ids to
// warm the country's cache with, highest demand first.
type PreloadResponse struct {
	Country string   `json:"country"`
	Policy  string   `json:"policy"`
	Videos  []string `json:"videos"`
}

// IngestEvent is one view observation inside a /v1/ingest batch: Views
// additional views of video Video from Country, attributed to Tags.
// Upload marks the first observation of a fresh upload (it grows the
// training corpus and each tag's document frequency, deduplicated by
// video id within a fold epoch).
type IngestEvent struct {
	Video   string   `json:"video,omitempty"`
	Tags    []string `json:"tags"`
	Country string   `json:"country"` // ISO alpha-2
	Views   float64  `json:"views"`
	Upload  bool     `json:"upload,omitempty"`
}

// IngestRequest is the /v1/ingest wire request.
type IngestRequest struct {
	Events []IngestEvent `json:"events"`
}

// IngestResponse acknowledges an accepted batch. Epoch is the number of
// completed folds at acceptance time: the events become visible to
// /v1/predict once the served epoch exceeds it.
type IngestResponse struct {
	Accepted int    `json:"accepted"`
	Epoch    uint64 `json:"epoch"`
	// Pending is the buffered tag attributions (Σ tags over events)
	// awaiting the next fold — the unit -ingest-buffer bounds.
	Pending int64 `json:"pending"`
}

// TagInfo is one entry of /v1/tags.
type TagInfo struct {
	Name       string  `json:"name"`
	Videos     int     `json:"videos"`
	TotalViews float64 `json:"total_views"`
	Spread     string  `json:"spread"`
	TopCountry string  `json:"top_country"`
	TopShare   float64 `json:"top_share"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the request's trace id so a client can quote
	// the exact id to grep for across gateway and shard logs.
	RequestID string `json:"request_id,omitempty"`
}

// WriteJSON, WriteError and DecodeBody are the wire-level helpers every
// handler is built from. They are exported for the gateway's own routes
// (stats, health, reshard), which must encode errors and decode bodies
// as a node's do; the routes both daemons serve are one implementation
// (edge.go). (Methods are gated by the route table's guard, Mount, not by
// handlers.)

// WriteJSON encodes v as the JSON response body with the given status.
// The body is encoded into a pooled buffer first, so the reply carries
// Content-Length and goes out in one write (net/http switches to
// chunked encoding for anything it cannot size within its 2 KB buffer),
// and a value that fails to encode answers 500 instead of a torn 200.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(buf).Encode(errorResponse{
			Error:     "response encode failed: " + err.Error(),
			RequestID: w.Header().Get(obs.TraceHeader),
		})
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody sends one fully rendered JSON body: sized, in one write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", jsonContentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteError writes the uniform error envelope, echoing the request's
// trace id (the trace middleware stamps it on the response headers
// before any handler runs; outside the middleware the field is simply
// omitted).
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(obs.TraceHeader),
	})
}

// DecodeBody decodes a JSON body with a size cap, strict fields and
// nothing after the value, so typos in request shapes fail loudly
// instead of silently defaulting. (The hot routes decode through the
// edge codec, which ends in the same strict decode; see edge_decode.go.)
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if err := decodeStrict(r.Body, v); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// A node is the public contract's local backend (edge.go): every answer
// comes from the snapshot it serves and the accumulator it feeds.

// Countries is the Backend's country table: the world every snapshot the
// store installs shares.
func (s *Server) Countries() *Countries { return s.countries }

// Predict is the Backend's predict: each item through PredictInto over
// one snapshot, straight into the contract's rows.
func (s *Server) Predict(r *http.Request, items [][]string, w tagviews.Weighting, out *Predictions) *ErrorReply {
	snap := s.store.Load()
	start := time.Now()
	for i, tags := range items {
		out.Known[i] = snap.PredictInto(out.Row(i), tags, w)
	}
	TraceFrom(r).Add("predict", obs.NoShard, start, time.Since(start), "")
	return nil
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req PlaceRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	world := s.world()
	upload, ok := world.ByCode(req.Upload)
	if !ok {
		WriteError(w, http.StatusBadRequest, "unknown upload country %q", req.Upload)
		return
	}
	if req.Strategy == "" {
		req.Strategy = placement.StrategyPredicted.String()
	}
	strategy, err := placement.ParseStrategy(req.Strategy)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	weighting, err := tagviews.ParseWeighting(req.Weighting)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	replicas := req.Replicas
	if replicas == 0 {
		replicas = placement.DefaultConfig().Replicas
	}

	snap := s.store.Load()
	var demand []float64
	known := false
	if len(req.Tags) > 0 {
		if !validTags(w, 0, req.Tags) {
			return
		}
		bufp := s.scratch.Get()
		defer s.scratch.Put(bufp)
		known = snap.PredictInto(*bufp, req.Tags, weighting)
		if known {
			demand = *bufp
		}
		// All tags unknown: leave demand nil so StrategyPredicted takes
		// the home fallback, matching the offline Evaluator's treatment
		// of unpredicted videos (the prior is a prediction of nothing).
	}
	sites, err := s.rec.Recommend(strategy, upload, demand, replicas)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := PlaceResponse{Strategy: strategy.String(), Known: known, Replicas: make([]string, len(sites))}
	for i, c := range sites {
		resp.Replicas[i] = world.Country(c).Code
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePreload(w http.ResponseWriter, r *http.Request) {
	var req PreloadRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	cat := s.cat
	if cat == nil {
		WriteError(w, http.StatusServiceUnavailable, "no catalog loaded: preload advisories need the synthetic catalog (video ids, tags and view totals)")
		return
	}
	country, ok := cat.World.ByCode(req.Country)
	if !ok {
		WriteError(w, http.StatusBadRequest, "unknown country %q", req.Country)
		return
	}
	if req.Policy == "" {
		req.Policy = geocache.PolicyTagPush.String()
	}
	policy, err := geocache.ParsePolicy(req.Policy)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	weighting, err := tagviews.ParseWeighting(req.Weighting)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	slots := req.Slots
	if slots == 0 {
		slots = 64
	}
	// Only tag-push reads the profiles: its column is computed here, per
	// request, against whatever snapshot is serving.
	var share []float64
	if policy == geocache.PolicyTagPush {
		buf := s.colScratch.Get()
		defer s.colScratch.Put(buf)
		share = s.store.Load().PredictColumn(*buf, cat, country, weighting)
	}
	vids, err := geocache.PreloadAdvisory(cat, share, policy, country, slots)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := PreloadResponse{Country: req.Country, Policy: policy.String(), Videos: make([]string, len(vids))}
	for i, v := range vids {
		resp.Videos[i] = cat.IDs[v]
	}
	WriteJSON(w, http.StatusOK, resp)
}

// Ingest is the Backend's ingest: the batch into the accumulator, whose
// Add journals it first when the daemon is durable.
func (s *Server) Ingest(r *http.Request, events []ingest.Event) (IngestResponse, *ErrorReply) {
	if s.ing == nil {
		return IngestResponse{}, &ErrorReply{Status: http.StatusServiceUnavailable, Msg: "ingest disabled: daemon started without an event stream (-ingest-interval 0)"}
	}
	// The journal span covers Add end to end: buffer splice plus the
	// synchronous WAL append when the daemon is durable.
	start := time.Now()
	err := s.ing.Add(events)
	status := ""
	if err != nil {
		status = "error"
	}
	TraceFrom(r).Add("journal", obs.NoShard, start, time.Since(start), status)
	if err != nil {
		return IngestResponse{}, s.ingestRefusal(err)
	}
	st := s.ing.Stats()
	return IngestResponse{Accepted: len(events), Epoch: st.Epoch, Pending: st.Pending}, nil
}

// TopTags is the Backend's top-k: the snapshot's highest-volume profiles.
func (s *Server) TopTags(_ *http.Request, k int) ([]TagInfo, *ErrorReply) {
	snap := s.store.Load()
	world := snap.World()
	top := snap.TopProfiles(k)
	out := make([]TagInfo, len(top))
	for i, p := range top {
		info := TagInfo{
			Name:       p.Name,
			Videos:     p.Videos,
			TotalViews: p.TotalViews,
			Spread:     p.Spread.String(),
			TopShare:   p.TopShare,
		}
		if int(p.TopCountry) >= 0 && int(p.TopCountry) < world.N() {
			info.TopCountry = world.Country(p.TopCountry).Code
		}
		out[i] = info
	}
	return out, nil
}

// StitchTrace is the Backend's stitch: a node calls no other process, so
// its traces are whole.
func (s *Server) StitchTrace(context.Context, string) []ShardTraceView { return nil }

// statsPayload is the /v1/stats wire shape, and what /metrics encodes:
// the per-route counters, plus the ingest stream's accumulator stats
// when the write path is enabled and the durable-state block when
// persistence is.
type statsPayload struct {
	Snapshot
	Stream  *ingest.Stats  `json:"stream,omitempty"`
	Persist *persist.Stats `json:"persist,omitempty"`
}

// stats reads the payload both telemetry routes serve.
func (s *Server) stats() statsPayload {
	p := statsPayload{Snapshot: s.metrics.Snapshot()}
	if s.ing != nil {
		st := s.ing.Stats()
		p.Stream = &st
	}
	if s.persistStats != nil {
		ps := s.persistStats()
		p.Persist = &ps
	}
	return p
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.stats())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.checkpoint == nil {
		if s.persistStats != nil {
			WriteError(w, http.StatusServiceUnavailable, "persistence is read-only on this daemon (-ingest-interval 0): no fold loop to checkpoint")
			return
		}
		WriteError(w, http.StatusServiceUnavailable, "persistence disabled: daemon started without -data-dir")
		return
	}
	status, err := s.checkpoint()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, status)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Load()
	h := map[string]any{
		"status":    "ok",
		"tags":      snap.NumTags(),
		"records":   snap.Records(),
		"countries": snap.World().N(),
	}
	if s.ing != nil {
		h["epoch"] = s.ing.Epoch()
	}
	if s.persistStats != nil {
		// Summarized, not the full block (/v1/stats has that): liveness
		// probes fire every few seconds and should stay cheap to render.
		ps := s.persistStats()
		h["persist"] = map[string]any{
			"checkpoint_gen": ps.CheckpointGen,
			"wal_segments":   ps.WALSegments,
			"wal_bytes":      ps.WALBytes,
			"recovered":      ps.Recovered,
		}
	}
	WriteJSON(w, http.StatusOK, h)
}

// handleReady is the readiness probe, split from /healthz liveness: it
// answers 503 until recovery (checkpoint load + journal replay) has
// finished and the first serving snapshot is installed, so rollouts and
// load balancers don't route to a node still rebuilding its state. The
// payload carries the same epoch /healthz does, for operators curious
// where a recovering node is.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	h := map[string]any{}
	if s.ing != nil {
		h["epoch"] = s.ing.Epoch()
	}
	if !s.ready.Load() {
		h["status"] = "starting"
		WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	h["status"] = "ready"
	WriteJSON(w, http.StatusOK, h)
}
