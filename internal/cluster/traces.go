package cluster

import (
	"context"
	"net/http"

	"viewstags/internal/obs"
	"viewstags/internal/server"
)

// StitchTrace is the Backend's stitch, the one thing about
// /debug/traces/{id} only the edge can do: it fetches every shard's
// retained view of the same request id, concurrently, so the contract's
// reply is the cross-process picture — gateway stage spans plus each
// shard's handler/predict spans. One request is one id on every daemon it
// touched, so each lookup is an exact match. Absences are reported, not
// fatal: a stitched view with holes still answers "which leg was slow"
// for the shards that retained theirs.
func (g *Gateway) StitchTrace(ctx context.Context, id string) []server.ShardTraceView {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ShardTimeout)
	defer cancel()
	tp := g.topo.Load()
	// The id charset ([0-9A-Za-z-_.:], checked by the contract) is
	// path-safe, so no escaping is needed.
	replies := fanOut(g, ctx, tp, gets{path: "/debug/traces/" + id})
	out := make([]server.ShardTraceView, len(replies))
	for i, rep := range replies {
		out[i] = server.ShardTraceView{Shard: i, Target: tp.targets[i]}
		var v obs.TraceView
		switch err := rep.decode(&v); {
		case rep.status == http.StatusNotFound:
			out[i].Error = "not retained"
		case err != nil:
			out[i].Error = err.Error()
		default:
			out[i].Trace = &v
		}
	}
	return out
}
