package server

import (
	"net/http"

	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/persist"
)

// handleMetrics is GET /metrics: the Prometheus text exposition for
// one daemon — route histograms and counters, the ingest stream's
// buffer depth and fold-duration histogram (when the write path is
// enabled), the persist tier's WAL/checkpoint state (when durable),
// and Go runtime gauges. Exempt from the concurrency limiter, like
// /v1/stats: a scrape must still answer while the server sheds.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tw := obs.NewTextWriter()
	s.metrics.WriteProm(tw)
	if s.ing != nil {
		writeIngestProm(tw, s.ing)
	}
	if s.persistStats != nil {
		writePersistProm(tw, s.persistStats(), s.walHist, s.ckptHist)
	}
	obs.WriteGoRuntime(tw)
	if sig := s.ident.Load().ringSig; sig != "" {
		obs.WriteBuildInfo(tw, obs.Label{Name: "ring_signature", Value: sig})
	} else {
		obs.WriteBuildInfo(tw)
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	_, _ = w.Write(tw.Bytes())
}

// writeIngestProm renders the streaming write path's families.
func writeIngestProm(tw *obs.TextWriter, ing *ingest.Accumulator) {
	st := ing.Stats()
	tw.Gauge("viewstags_ingest_pending", "Buffered tag attributions awaiting the next fold (the -ingest-buffer unit).")
	tw.Sample("viewstags_ingest_pending", nil, float64(st.Pending))
	tw.Counter("viewstags_ingest_events_total", "View events accepted since start.")
	tw.Sample("viewstags_ingest_events_total", nil, float64(st.Events))
	tw.Counter("viewstags_ingest_dropped_total", "View events rejected by backpressure.")
	tw.Sample("viewstags_ingest_dropped_total", nil, float64(st.Dropped))
	tw.Gauge("viewstags_ingest_epoch", "Completed snapshot folds.")
	tw.Sample("viewstags_ingest_epoch", nil, float64(st.Epoch))
	tw.HistogramFamily("viewstags_ingest_fold_duration_seconds", "Wall time of each snapshot fold (drain + rebuild + install).")
	tw.Histogram("viewstags_ingest_fold_duration_seconds", nil, ing.FoldHist().Snapshot())
}

// writePersistProm renders the durable tier's families. The histograms
// may be nil (stats-only wiring, e.g. tests); their families are then
// omitted.
func writePersistProm(tw *obs.TextWriter, st persist.Stats, wal, ckpt *obs.Histogram) {
	tw.Gauge("viewstags_wal_segments", "WAL segment files on disk.")
	tw.Sample("viewstags_wal_segments", nil, float64(st.WALSegments))
	tw.Gauge("viewstags_wal_bytes", "Total WAL bytes on disk.")
	tw.Sample("viewstags_wal_bytes", nil, float64(st.WALBytes))
	tw.Counter("viewstags_wal_appends_total", "Journal records appended since boot.")
	tw.Sample("viewstags_wal_appends_total", nil, float64(st.WALAppends))
	tw.Gauge("viewstags_checkpoint_gen", "Generation of the newest durable checkpoint.")
	tw.Sample("viewstags_checkpoint_gen", nil, float64(st.CheckpointGen))
	tw.Gauge("viewstags_checkpoints", "Checkpoint files on disk.")
	tw.Sample("viewstags_checkpoints", nil, float64(st.Checkpoints))
	if wal != nil {
		tw.HistogramFamily("viewstags_wal_append_duration_seconds", "WAL append latency (encode + write + optional fsync).")
		tw.Histogram("viewstags_wal_append_duration_seconds", nil, wal.Snapshot())
	}
	if ckpt != nil {
		tw.HistogramFamily("viewstags_checkpoint_duration_seconds", "Checkpoint save duration (write + fsync + rename + prune).")
		tw.Histogram("viewstags_checkpoint_duration_seconds", nil, ckpt.Snapshot())
	}
}
