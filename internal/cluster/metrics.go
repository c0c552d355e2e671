package cluster

import (
	"net/http"
	"strconv"

	"viewstags/internal/obs"
)

// handleMetrics is the gateway's GET /metrics: the shared route
// families (the same middleware-fed histograms a shard exposes), the
// cluster-level view — per-shard health, epoch and epoch lag, the
// conservative min-epoch fold horizon — the predict path's leg and
// row-cache counters, and Go runtime gauges. Like /v1/stats, the scrape
// bypasses the concurrency limiter so a saturated gateway can still
// explain itself.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tp := g.topo.Load()
	tw := obs.NewTextWriter()
	g.metrics.WriteProm(tw)
	g.writeClusterProm(tw, tp)
	obs.WriteGoRuntime(tw)
	obs.WriteBuildInfo(tw, obs.Label{Name: "ring_signature", Value: tp.ring.Signature()})
	w.Header().Set("Content-Type", obs.TextContentType)
	_, _ = w.Write(tw.Bytes())
}

// writeClusterProm renders the gateway-only families. Epoch lag is
// measured against the highest epoch any shard reports: the natural
// alert signal for one shard falling behind on folds (the absolute
// epoch alone cannot say who is stale).
func (g *Gateway) writeClusterProm(tw *obs.TextWriter, tp *topology) {
	var maxEpoch uint64
	for _, s := range tp.shards {
		if e := s.epoch.Load(); e > maxEpoch {
			maxEpoch = e
		}
	}
	tw.Gauge("viewstags_shard_up", "1 when the shard is in rotation, 0 when marked down.")
	tw.Gauge("viewstags_shard_syncing", "1 while a revived replica rebuilds from its peers (writes yes, reads no).")
	tw.Gauge("viewstags_shard_epoch", "Last fold epoch the shard reported.")
	tw.Gauge("viewstags_shard_epoch_lag", "Folds the shard trails the most advanced shard by.")
	tw.Gauge("viewstags_shard_records", "Training records the shard reported at its last poll.")
	for i, s := range tp.shards {
		labels := []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}
		up := 1.0
		if s.down.Load() {
			up = 0
		}
		syncing := 0.0
		if s.syncing.Load() {
			syncing = 1
		}
		epoch := s.epoch.Load()
		tw.Sample("viewstags_shard_up", labels, up)
		tw.Sample("viewstags_shard_syncing", labels, syncing)
		tw.Sample("viewstags_shard_epoch", labels, float64(epoch))
		tw.Sample("viewstags_shard_epoch_lag", labels, float64(maxEpoch-epoch))
		tw.Sample("viewstags_shard_records", labels, float64(s.records.Load()))
	}
	tw.HistogramFamily("viewstags_shard_leg_duration_seconds", "One shard's answered leg of a fan-out (envelope write to reply read), by shard and data-plane route; legs that failed, timed out or were cancelled are not observed.")
	tw.Counter("viewstags_shard_stream_reconnects_total", "Data-plane stream dials to the shard after the first.")
	tw.Counter("viewstags_row_cache_refresh_legs_total", "Refresh frames sent to the shard.")
	for i, s := range tp.shards {
		shard := obs.Label{Name: "shard", Value: strconv.Itoa(i)}
		for route := range s.legs {
			tw.Histogram("viewstags_shard_leg_duration_seconds",
				[]obs.Label{shard, {Name: "route", Value: legRouteNames[route]}}, s.legs[route].Snapshot())
		}
		tw.Sample("viewstags_shard_stream_reconnects_total", []obs.Label{shard}, float64(tp.streams[i].reconnects()))
		tw.Sample("viewstags_row_cache_refresh_legs_total", []obs.Label{shard}, float64(s.refreshLegs.Load()))
	}
	tw.Gauge("viewstags_cluster_min_epoch", "Lowest epoch any shard reports — the conservative fold horizon.")
	tw.Sample("viewstags_cluster_min_epoch", nil, float64(tp.minEpoch()))
	tw.Gauge("viewstags_cluster_replicas", "Copies of each tag's slice the ring places.")
	tw.Sample("viewstags_cluster_replicas", nil, float64(tp.ring.Replicas()))
	tw.Counter("viewstags_replica_failover_total", "Reads re-scattered to surviving replicas after a shard failed mid-fan-out.")
	tw.Sample("viewstags_replica_failover_total", nil, float64(g.failovers.Load()))
	if h := g.handoff.Load(); h != nil {
		tw.Gauge("viewstags_handoff_epoch", "Reshard handoffs started since gateway start.")
		tw.Sample("viewstags_handoff_epoch", nil, float64(h.Epoch))
		tw.Gauge("viewstags_handoff_active", "1 while a reshard handoff is in flight.")
		active := 1.0
		if h.Phase == HandoffIdle {
			active = 0
		}
		tw.Sample("viewstags_handoff_active", nil, active)
	}
	tw.Counter("viewstags_predict_legs_total", "Shard frames predict requests paid for (over viewstags_requests_total{route=\"predict\"}: legs per request); refresh frames are not among them.")
	tw.Sample("viewstags_predict_legs_total", nil, float64(g.predictLegs.Load()))
	tw.Counter("viewstags_row_cache_lookups_total", "Tag positions a predict resolved from cached rows at first look (hit) or had to fetch (miss).")
	tw.Sample("viewstags_row_cache_lookups_total", []obs.Label{{Name: "result", Value: "hit"}}, float64(g.rowHits.Load()))
	tw.Sample("viewstags_row_cache_lookups_total", []obs.Label{{Name: "result", Value: "miss"}}, float64(g.rowMisses.Load()))
	tw.Gauge("viewstags_row_cache_rows", "Per-tag partial rows the current topology's cache holds.")
	tw.Sample("viewstags_row_cache_rows", nil, float64(tp.rows.n.Load()))
	tw.Counter("viewstags_row_cache_refresh_rows_total", "Rows re-read in bulk, off the request path, after the gateway observed their shard's epoch move.")
	tw.Sample("viewstags_row_cache_refresh_rows_total", nil, float64(g.refreshedRows.Load()))
	tw.Counter("viewstags_row_cache_refresh_dropped_total", "Rows dropped instead of re-read: nobody had asked for them through the last refreshes.")
	tw.Sample("viewstags_row_cache_refresh_dropped_total", nil, float64(g.refreshDropped.Load()))
	tw.Counter("viewstags_row_cache_invalidations_total", "Times every row cached from the shard went stale at once, by cause: its epoch advanced, it was marked down, it came back, it was rebuilt from its peers.")
	for i, s := range tp.shards {
		for c := range s.invalidations {
			tw.Sample("viewstags_row_cache_invalidations_total",
				[]obs.Label{{Name: "shard", Value: strconv.Itoa(i)}, {Name: "cause", Value: invalCauseNames[c]}}, float64(s.invalidations[c].Load()))
		}
	}
}
