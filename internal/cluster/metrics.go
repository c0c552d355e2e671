package cluster

import (
	"net/http"
	"strconv"

	"viewstags/internal/obs"
)

// handleMetrics is the gateway's GET /metrics: every scalar series is a
// field of the payload /v1/stats serves — the shared route counters and
// the cluster view: per-shard health, epoch and epoch lag, the
// conservative min-epoch fold horizon, the predict path's leg and
// row-cache counters — encoded from its prom tags; then the route latency
// and shard leg histograms and the Go runtime and build families. Like
// /v1/stats, the scrape bypasses the concurrency limiter so a saturated
// gateway can still explain itself.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tp := g.topo.Load()
	tw := obs.NewTextWriter()
	tw.Encode(g.stats(tp))
	g.metrics.WriteProm(tw)
	for i, s := range tp.shards {
		for route := range s.legs {
			tw.Histogram("viewstags_shard_leg_duration_seconds", "One shard's answered leg of a fan-out (envelope write to reply read), by shard and data-plane route; legs that failed, timed out or were cancelled are not observed.",
				[]obs.Label{{Name: "shard", Value: strconv.Itoa(i)}, {Name: "route", Value: legRouteNames[route]}}, s.legs[route].Snapshot())
		}
	}
	obs.WriteGoRuntime(tw)
	obs.WriteBuildInfo(tw, obs.Label{Name: "ring_signature", Value: tp.ring.Signature()})
	w.Header().Set("Content-Type", obs.TextContentType)
	_, _ = w.Write(tw.Bytes())
}
