package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"viewstags/internal/bincodec"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/profilestore"
)

// This file is the shard-internal API: the three /internal/* routes a
// cluster gateway (internal/cluster) drives. They speak in partial
// quantities — per-tag rows the gateway weights and combines with
// profilestore.Mix, per-shard upload announcements, topology metadata —
// that only make sense to a merging edge, which is why they live beside
// the public routes but are documented separately (API.md,
// "Shard-internal routes"). The plain predict frame (partial mixtures)
// remains only for the benchmark's ledger (ROADMAP item 1). Every node
// serves them: a standalone daemon is simply a 1-shard cluster, so a
// gateway pointed at it works unchanged.

// The paths of the shard-internal routes a gateway dials by name, beside
// StreamPath; the route table's rows are written with the same constants.
const (
	InternalPredictPath = "/internal/predict"
	InternalIngestPath  = "/internal/ingest"
	InternalMetaPath    = "/internal/meta"
)

// InternalMetaResponse is the /internal/meta wire response: the shard's
// cluster identity and the global (unpartitioned) state a gateway needs
// to merge partial predictions — the country table and the traffic
// prior. A gateway refuses targets whose identity or globals disagree.
type InternalMetaResponse struct {
	Index         int          `json:"index"`
	Shards        int          `json:"shards"`
	Replicas      int          `json:"replicas,omitempty"`
	RingSignature string       `json:"ring_signature,omitempty"`
	Countries     []string     `json:"countries"`
	Prior         []float64    `json:"prior"`
	Tags          int          `json:"tags"`
	Version       ShardVersion `json:"version"`
	IngestEnabled bool         `json:"ingest_enabled"`
	// Ready mirrors /readyz: false while the shard is still recovering
	// (checkpoint load + journal replay). The gateway's health loop
	// treats an unready shard like an unreachable one, so traffic stays
	// away until recovery completes.
	Ready bool `json:"ready"`
}

// handleInternalPredict serves the gateway's row fetches: a rows request
// in (one tag per item), each tag's row out (profilestore.Snapshot.Row),
// straight from the snapshot into a pooled frame, for the gateway to
// weight and add with the rule and kernel a node's own predict runs. The
// gateway chose this shard for those tags; the shard answers what it is
// asked. A plain frame's items are tag lists, answered as partial
// mixtures (profilestore.PredictPartialInto). The item count is refused
// above MaxBatch, and an item's tag count above ingest.MaxEventTags,
// before anything is allocated for it. Errors go out as
// the JSON error envelope: off the hot path, and one envelope keeps the
// gateway's error plumbing single-sourced.
func (s *Server) handleInternalPredict(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != WireContentType {
		WriteError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q: /internal/predict takes %s", ct, WireContentType)
		return
	}
	body, err := readBody(w, r)
	defer releaseBodyBuf(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	items, weighting, flags, err := decodePredictRequest(body.Bytes(), s.cfg.MaxBatch)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if len(items) == 0 {
		WriteError(w, http.StatusBadRequest, "empty request: provide items")
		return
	}
	for i, tags := range items {
		if !validTags(w, i, tags) {
			return
		}
	}

	// A gateway keeps rows under the reply's version, which may trail the
	// snapshot they come from but never lead it (version).
	v, snap := s.version()
	bufp := s.scratch.Get()
	defer s.scratch.Put(bufp)
	buf := *bufp

	enc := GetPredictWireEncoder()
	defer PutPredictWireEncoder(enc)
	// The reply mirrors the request's CRC choice, so integrity stays an
	// end-to-end gateway decision, and its rows bit.
	if crc := flags&wireFlagCRC != 0; flags&wireFlagRows == 0 {
		enc.begin(weighting, v, len(buf), len(items), crc, 0)
	} else {
		enc.BeginRows(v, len(buf), len(items), crc)
	}
	predictStart := time.Now()
	for _, tags := range items {
		if flags&wireFlagRows == 0 {
			enc.Item(snap.PredictPartialInto(buf, tags, weighting), buf)
		} else {
			enc.Row(snap.Row(tags[0]))
		}
	}
	// Span record is allocation-free, so the hot path keeps its
	// zero-steady-state budget.
	TraceFrom(r).Add("predict", obs.NoShard, predictStart, time.Since(predictStart), "")
	s.metrics.Predictions.Add(int64(len(items)))
	frame := enc.Finish()
	w.Header().Set("Content-Type", WireContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

// validTags applies the per-item tag checks both predict entry points
// and /v1/place share — the public contract and the binary wire: the
// item must have tags, at most ingest.MaxEventTags of them as an event
// may, and no tag may be empty or exceed MaxTagLen, or a request the
// gateway accepts would bounce off a shard's decoder. On failure the
// 400 has been written.
func validTags(w http.ResponseWriter, item int, tags []string) bool {
	if len(tags) == 0 {
		WriteError(w, http.StatusBadRequest, "item %d has no tags", item)
		return false
	}
	if len(tags) > ingest.MaxEventTags {
		tooManyTags(w, item, len(tags))
		return false
	}
	for j, tag := range tags {
		if tag == "" {
			WriteError(w, http.StatusBadRequest, "item %d tag %d is empty", item, j)
			return false
		}
		if len(tag) > MaxTagLen {
			WriteError(w, http.StatusBadRequest, "item %d tag %d is %d bytes (limit %d)", item, j, len(tag), MaxTagLen)
			return false
		}
	}
	return true
}

// tooManyTags is validTags' 400 for an item of n > ingest.MaxEventTags
// tags, which the JSON decoders also answer before building such a list.
func tooManyTags(w http.ResponseWriter, item, n int) {
	WriteError(w, http.StatusBadRequest, "item %d has %d tags (limit %d)", item, n, ingest.MaxEventTags)
}

// version reads the shard's version and the snapshot it describes. The
// incarnation and epoch (0 without ingest) are read BEFORE the snapshot: a
// fold installs and then advances the epoch, a transfer installs and then
// moves the incarnation, so the label may trail the snapshot by one
// install, and rows labelled E+1 but read before fold E+1 — current to a
// gateway for a whole epoch — cannot happen.
func (s *Server) version() (ShardVersion, *profilestore.Snapshot) {
	v := ShardVersion{Incarnation: s.incarnation.Load()}
	if s.ing != nil {
		v.Epoch = s.ing.Epoch()
	}
	snap := s.store.Load()
	v.Records = snap.Records()
	return v, snap
}

// handleInternalIngest applies the gateway's per-shard share of an
// ingest batch: the events whose tags this shard owns (tag lists already
// filtered to the owned subset by the gateway), plus bare upload
// announcements — video ids freshly uploaded whose tags all live on
// other shards. The announcements exist because the training-corpus
// size is global: every shard must count every new upload exactly once
// per fold epoch or its IDF weights drift from its peers'. The body and
// the ack are binary (IngestContentType, wire.go).
func (s *Server) handleInternalIngest(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		WriteError(w, http.StatusServiceUnavailable, "ingest disabled: daemon started without an event stream (-ingest-interval 0)")
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != IngestContentType {
		WriteError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q: /internal/ingest takes %s", ct, IngestContentType)
		return
	}
	body, err := readBody(w, r)
	defer releaseBodyBuf(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	// The counts are capped before anything is allocated: events and
	// uploads at MaxBatch, an event's tags at ingest.MaxEventTags.
	// Every string is copied out of the body, so the pooled body is free
	// for the ack and nothing the accumulator keeps pins it.
	br := bincodec.NewReader(body.Bytes())
	events, uploads := ingest.ReadBatch(&br, s.cfg.MaxBatch)
	if err := br.End(); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if len(events) == 0 && len(uploads) == 0 {
		WriteError(w, http.StatusBadRequest, "empty request: provide events or uploads")
		return
	}
	// One call validates both halves, journals them as one record and
	// applies them together: a batch lands whole or not at all.
	if err := s.ing.Add(events, uploads...); err != nil {
		s.ingestRefusal(err).Write(w)
		return
	}
	s.metrics.Events.Add(int64(len(events)))
	v, _ := s.version()
	ack := appendIngestAck(body.AvailableBuffer(), &IngestAck{
		Accepted: len(events) + len(uploads),
		Version:  v,
		Pending:  s.ing.Stats().Pending,
	})
	w.Header().Set("Content-Type", IngestContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(ack)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ack)
}

func (s *Server) handleInternalMeta(w http.ResponseWriter, r *http.Request) {
	v, snap := s.version()
	id := s.ident.Load()
	resp := InternalMetaResponse{
		Index:         id.index,
		Shards:        id.ring.Shards(),
		RingSignature: id.ring.Signature(),
		Countries:     snap.World().Codes(),
		Prior:         snap.Prior(),
		Tags:          snap.NumTags(),
		Version:       v,
		IngestEnabled: s.ing != nil,
		Ready:         s.ready.Load(),
	}
	if n := id.ring.Replicas(); n > 1 {
		resp.Replicas = n
	}
	WriteJSON(w, http.StatusOK, resp)
}

// ingestRefusal maps an Accumulator.Add error onto the wire:
// backpressure is a 503 with the fold interval as the Retry-After hint
// (the buffer only clears when the next fold drains it), a journal
// failure is a 503 too (the batch was well-formed — the disk, not the
// client, is the problem, and "ack means durable" forbids accepting it
// anyway; see OPERATIONS.md's disk-full playbook), and anything else is a
// 400 (malformed batch).
func (s *Server) ingestRefusal(err error) *ErrorReply {
	if errors.Is(err, ingest.ErrBufferFull) || errors.Is(err, ingest.ErrJournal) {
		return &ErrorReply{Status: http.StatusServiceUnavailable, Msg: err.Error(), RetryAfter: RetryAfterSecs(s.foldInterval)}
	}
	return &ErrorReply{Status: http.StatusBadRequest, Msg: err.Error()}
}
