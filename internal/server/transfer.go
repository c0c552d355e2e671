package server

import (
	"net/http"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/persist"
	"viewstags/internal/profilestore"
	"viewstags/internal/tagviews"
)

// This file is the shard-transfer surface behind live resharding and
// replica catch-up: three /internal/transfer/* routes a gateway drives
// to stream a slice of the vocabulary from one node to another using
// the persist snapshot codec (Export → WriteSnapshot → ReadSnapshot →
// FromData is bit-identical), then cut the receiving node over to its
// new topology. The routes need Config.MakeTopology to reason about a
// destination topology that is not the node's own; without it they
// answer 503, which is what a standalone daemon without cluster wiring
// reports.

// TransferContentType is the /internal/transfer/export response (and
// import request) body type: a persist-codec snapshot frame.
const TransferContentType = "application/x-viewstags-snapshot-v1"

// TransferExportRequest asks a source node for the slice of its
// vocabulary a destination shard owns under a (possibly different)
// topology. Exclude lists shards out of the source-side assignment —
// for replica catch-up the destination itself plus any other dead
// replicas, so of the R live holders of a tag exactly one source
// exports it and the destination receives each tag exactly once across
// the per-source exports.
type TransferExportRequest struct {
	DestShards   int   `json:"dest_shards"`
	DestReplicas int   `json:"dest_replicas"`
	DestIndex    int   `json:"dest_index"`
	Exclude      []int `json:"exclude,omitempty"`
}

// TransferImportResponse acknowledges a merged import: the node's tag
// count, record count and fold epoch after the merge.
type TransferImportResponse struct {
	Tags    int    `json:"tags"`
	Records int    `json:"records"`
	Epoch   uint64 `json:"epoch"`
}

// TransferAdoptRequest re-homes the node inside a new topology: shard
// Index of Shards with Replicas copies per tag. The node rebuilds its
// ring, prunes profiles it no longer owns, and swaps its identity — the
// cutover step of a live reshard.
type TransferAdoptRequest struct {
	Index    int `json:"index"`
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
}

// TransferAdoptResponse reports the adopted identity; the gateway
// verifies Signature against its own new ring before serving over it.
type TransferAdoptResponse struct {
	Index     int    `json:"index"`
	Shards    int    `json:"shards"`
	Replicas  int    `json:"replicas"`
	Signature string `json:"signature"`
	Tags      int    `json:"tags"`
	Records   int    `json:"records"`
}

// requireTopology gates the transfer routes on cluster wiring; on
// failure the 503 has been written.
func (s *Server) requireTopology(w http.ResponseWriter) bool {
	if s.cfg.MakeTopology == nil {
		WriteError(w, http.StatusServiceUnavailable, "transfer disabled: daemon started without cluster topology wiring")
		return false
	}
	return true
}

// flushFolds drains pending ingest deltas into the serving snapshot so
// transfer operates on fully folded state; on failure the 500 has been
// written.
func (s *Server) flushFolds(w http.ResponseWriter) bool {
	if s.foldNow == nil {
		return true
	}
	if _, err := s.foldNow(); err != nil {
		WriteError(w, http.StatusInternalServerError, "pre-transfer fold: %v", err)
		return false
	}
	return true
}

func (s *Server) handleTransferExport(w http.ResponseWriter, r *http.Request) {
	if !s.requireTopology(w) {
		return
	}
	var req TransferExportRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.DestShards < 1 || req.DestIndex < 0 || req.DestIndex >= req.DestShards {
		WriteError(w, http.StatusBadRequest, "destination shard %d of %d out of range", req.DestIndex, req.DestShards)
		return
	}
	if req.DestReplicas < 1 {
		req.DestReplicas = 1
	}
	destTopo, err := s.cfg.MakeTopology(req.DestShards, req.DestReplicas)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "destination topology: %v", err)
		return
	}
	if !s.flushFolds(w) {
		return
	}

	// Keep a tag iff the destination will own it AND this node is the
	// replica assigned to export it (sole owner on unreplicated nodes),
	// so concurrent per-source exports partition the destination's
	// slice instead of overlapping.
	id := s.ident.Load()
	keep := func(name string) bool {
		if !destTopo.Owns(name, req.DestIndex) {
			return false
		}
		if id.topo == nil || id.replicas <= 1 {
			return true
		}
		return id.topo.Assign(name, req.Exclude) == id.index
	}
	snap := s.store.Load()
	exportStart := time.Now()
	data := snap.ExportFiltered(keep)
	meta := persist.CheckpointMeta{Epoch: s.epoch()}
	w.Header().Set("Content-Type", TransferContentType)
	w.WriteHeader(http.StatusOK)
	if err := persist.WriteSnapshot(w, meta, data); err != nil {
		// Headers are gone; all we can do is log and cut the stream so
		// the peer's decoder fails loudly instead of importing a prefix.
		s.logger.Printf("server: transfer export failed mid-stream: %v", err)
		return
	}
	TraceFrom(r).Add("transfer_export", obs.NoShard, exportStart, time.Since(exportStart), "")
}

func (s *Server) handleTransferImport(w http.ResponseWriter, r *http.Request) {
	if !s.requireTopology(w) {
		return
	}
	// Fold BEFORE merging: any events this node buffered were also
	// delivered to (and folded by) the exporting replica, so folding
	// them first and then replacing by name is an exact dedup — folding
	// them after the merge would double-count on top of the imported
	// values. The gateway holds writes across the export+import pair,
	// so nothing new arrives in between.
	if !s.flushFolds(w) {
		return
	}
	_, data, err := persist.ReadSnapshot(r.Body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid snapshot body: %v", err)
		return
	}
	importStart := time.Now()
	s.mu.Lock()
	next, err := profilestore.MergeData(s.store.Load(), data)
	if err == nil {
		err = s.installLocked(next, tagviews.WeightIDF)
	}
	s.mu.Unlock()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "merge: %v", err)
		return
	}
	if s.checkpoint != nil {
		// Make the transferred slice durable now: a crash before the
		// next scheduled checkpoint must not silently shrink the shard
		// back to its pre-transfer vocabulary.
		if _, err := s.checkpoint(); err != nil {
			WriteError(w, http.StatusInternalServerError, "post-import checkpoint: %v", err)
			return
		}
	}
	TraceFrom(r).Add("transfer_import", obs.NoShard, importStart, time.Since(importStart), "")
	snap := s.store.Load()
	WriteJSON(w, http.StatusOK, TransferImportResponse{
		Tags:    snap.NumTags(),
		Records: snap.Records(),
		Epoch:   s.epoch(),
	})
}

func (s *Server) handleTransferAdopt(w http.ResponseWriter, r *http.Request) {
	if !s.requireTopology(w) {
		return
	}
	var req TransferAdoptRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.Replicas < 1 {
		req.Replicas = 1
	}
	if req.Shards < 1 || req.Index < 0 || req.Index >= req.Shards {
		WriteError(w, http.StatusBadRequest, "shard %d of %d out of range", req.Index, req.Shards)
		return
	}
	topo, err := s.cfg.MakeTopology(req.Shards, req.Replicas)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "topology: %v", err)
		return
	}
	if !s.flushFolds(w) {
		return
	}
	adoptStart := time.Now()
	keep := func(name string) bool { return topo.Owns(name, req.Index) }
	s.mu.Lock()
	next, err := s.store.Load().Filter(keep)
	if err == nil {
		err = s.installLocked(next, tagviews.WeightIDF)
	}
	s.mu.Unlock()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "prune: %v", err)
		return
	}
	s.ident.Store(&shardIdent{
		index:    req.Index,
		shards:   req.Shards,
		replicas: req.Replicas,
		ringSig:  topo.Signature(),
		topo:     topo,
	})
	if s.checkpoint != nil {
		if _, err := s.checkpoint(); err != nil {
			WriteError(w, http.StatusInternalServerError, "post-adopt checkpoint: %v", err)
			return
		}
	}
	TraceFrom(r).Add("transfer_adopt", obs.NoShard, adoptStart, time.Since(adoptStart), "")
	s.logger.Printf("server: adopted topology shard %d/%d replicas=%d signature=%s",
		req.Index, req.Shards, req.Replicas, topo.Signature())
	snap := s.store.Load()
	WriteJSON(w, http.StatusOK, TransferAdoptResponse{
		Index:     req.Index,
		Shards:    req.Shards,
		Replicas:  req.Replicas,
		Signature: topo.Signature(),
		Tags:      snap.NumTags(),
		Records:   snap.Records(),
	})
}
