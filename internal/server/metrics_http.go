package server

import (
	"net/http"

	"viewstags/internal/obs"
)

// handleMetrics is GET /metrics: the Prometheus text exposition for
// one daemon — every scalar series is a field of the payload /v1/stats
// serves (route counters, the ingest stream's, the persist tier's),
// encoded from its prom tags; then the histograms /v1/stats carries only
// as quantiles or not at all (route latency, fold, WAL append,
// checkpoint) and the Go runtime and build families. Exempt from the
// concurrency limiter, like /v1/stats: a scrape must still answer while
// the server sheds.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tw := obs.NewTextWriter()
	tw.Encode(s.stats())
	s.metrics.WriteProm(tw)
	if s.ing != nil {
		tw.Histogram("viewstags_ingest_fold_duration_seconds", "Wall time of each snapshot fold (drain + rebuild + install).", nil, s.ing.FoldHist().Snapshot())
	}
	if s.walHist != nil {
		tw.Histogram("viewstags_wal_append_duration_seconds", "WAL append latency (encode + write + optional fsync).", nil, s.walHist.Snapshot())
	}
	if s.ckptHist != nil {
		tw.Histogram("viewstags_checkpoint_duration_seconds", "Checkpoint save duration (write + fsync + rename + prune).", nil, s.ckptHist.Snapshot())
	}
	obs.WriteGoRuntime(tw)
	obs.WriteBuildInfo(tw, obs.Label{Name: "ring_signature", Value: s.ident.Load().ring.Signature()})
	w.Header().Set("Content-Type", obs.TextContentType)
	_, _ = w.Write(tw.Bytes())
}
