package server

import (
	"net/http"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/persist"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
)

// This file is the shard-transfer surface behind live resharding and
// replica catch-up: three /internal/transfer/* routes a gateway drives
// to stream a slice of the vocabulary from one node to another using
// the persist snapshot codec (Export → WriteSnapshot → ReadSnapshot →
// FromData is bit-identical), then cut the receiving node over to its
// new topology. Every node has a ring (a standalone one is shard 0 of 1),
// so a destination topology is one ring.New away: the routes answer on
// every node.

// TransferContentType is the /internal/transfer/export response (and
// import request) body type: a persist-codec snapshot frame.
const TransferContentType = "application/x-viewstags-snapshot-v1"

// TransferExportRequest asks a source node for the slice of its
// vocabulary a destination shard owns under a (possibly different)
// topology. Exclude lists the source tier's shards out of read rotation
// (down or syncing — a catch-up's destinations among them), so of the R
// live holders of a tag exactly one source exports it and the
// destination receives each tag exactly once across the per-source
// exports.
type TransferExportRequest struct {
	DestShards   int   `json:"dest_shards"`
	DestReplicas int   `json:"dest_replicas"`
	DestIndex    int   `json:"dest_index"`
	Exclude      []int `json:"exclude,omitempty"`
}

// TransferImportResponse acknowledges a merged import: the node's tag
// count and version after the merge.
type TransferImportResponse struct {
	Tags    int          `json:"tags"`
	Version ShardVersion `json:"version"`
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
	Index     int          `json:"index"`
	Shards    int          `json:"shards"`
	Replicas  int          `json:"replicas"`
	Signature string       `json:"signature"`
	Tags      int          `json:"tags"`
	Version   ShardVersion `json:"version"`
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

// decodeDestination is the step export and adopt open with: decode req,
// range-check the shard its fields index, shards and replicas name
// (replicas default to 1), build that ring, and fold pending events. On
// failure the error reply has been written.
func (s *Server) decodeDestination(w http.ResponseWriter, r *http.Request, req any, index, shards, replicas *int) (*ring.Ring, bool) {
	if !DecodeBody(w, r, req) {
		return nil, false
	}
	if *shards < 1 || *index < 0 || *index >= *shards {
		WriteError(w, http.StatusBadRequest, "destination shard %d of %d out of range", *index, *shards)
		return nil, false
	}
	if *replicas < 1 {
		*replicas = 1
	}
	topo, err := ring.New(*shards, *replicas)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "destination topology: %v", err)
		return nil, false
	}
	return topo, s.flushFolds(w)
}

// installTransferred is the step import and adopt close with: install
// next(current), move the incarnation (content changed without a fold),
// checkpoint it when the daemon is durable (a crash before the next
// scheduled checkpoint must not silently undo the transfer), and record
// the step's span. On failure the 500 has been written.
func (s *Server) installTransferred(w http.ResponseWriter, r *http.Request, step string, next func(*profilestore.Snapshot) (*profilestore.Snapshot, error)) bool {
	start := time.Now()
	if err := s.install(next); err != nil {
		WriteError(w, http.StatusInternalServerError, "%s: %v", step, err)
		return false
	}
	for cur := s.incarnation.Load(); !s.incarnation.CompareAndSwap(cur, max(uint64(time.Now().UnixNano()), cur+1)); {
		cur = s.incarnation.Load()
	}
	if s.checkpoint != nil {
		if _, err := s.checkpoint(); err != nil {
			WriteError(w, http.StatusInternalServerError, "post-%s checkpoint: %v", step, err)
			return false
		}
	}
	TraceFrom(r).Add("transfer_"+step, obs.NoShard, start, time.Since(start), "")
	return true
}

func (s *Server) handleTransferExport(w http.ResponseWriter, r *http.Request) {
	var req TransferExportRequest
	destTopo, ok := s.decodeDestination(w, r, &req, &req.DestIndex, &req.DestShards, &req.DestReplicas)
	if !ok {
		return
	}

	// Keep a tag iff the destination will own it AND this node is the
	// replica assigned to export it (at R=1, the sole owner of every tag
	// it holds), so concurrent per-source exports partition the
	// destination's slice instead of overlapping.
	id := s.ident.Load()
	keep := func(name string) bool {
		if !destTopo.Owns(name, req.DestIndex) {
			return false
		}
		return id.ring.Replicas() == 1 || id.ring.Assign(name, req.Exclude) == id.index
	}
	v, snap := s.version()
	exportStart := time.Now()
	data := snap.ExportFiltered(keep)
	meta := persist.CheckpointMeta{Epoch: v.Epoch}
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
	merge := func(cur *profilestore.Snapshot) (*profilestore.Snapshot, error) {
		return profilestore.MergeData(cur, data)
	}
	if !s.installTransferred(w, r, "import", merge) {
		return
	}
	v, snap := s.version()
	WriteJSON(w, http.StatusOK, TransferImportResponse{Tags: snap.NumTags(), Version: v})
}

func (s *Server) handleTransferAdopt(w http.ResponseWriter, r *http.Request) {
	var req TransferAdoptRequest
	topo, ok := s.decodeDestination(w, r, &req, &req.Index, &req.Shards, &req.Replicas)
	if !ok {
		return
	}
	prune := func(cur *profilestore.Snapshot) (*profilestore.Snapshot, error) {
		return cur.Filter(func(name string) bool { return topo.Owns(name, req.Index) })
	}
	if !s.installTransferred(w, r, "adopt", prune) {
		return
	}
	sig := topo.Signature()
	s.ident.Store(&shardIdent{index: req.Index, ring: topo})
	s.logger.Printf("server: adopted topology shard %d/%d replicas=%d signature=%s",
		req.Index, req.Shards, req.Replicas, sig)
	v, snap := s.version()
	WriteJSON(w, http.StatusOK, TransferAdoptResponse{
		Index:     req.Index,
		Shards:    req.Shards,
		Replicas:  req.Replicas,
		Signature: sig,
		Tags:      snap.NumTags(),
		Version:   v,
	})
}
