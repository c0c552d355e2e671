package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"

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
	out := make([]server.ShardTraceView, len(tp.targets))
	var wg sync.WaitGroup
	for i := range tp.targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = server.ShardTraceView{Shard: i, Target: tp.targets[i]}
			var v obs.TraceView
			// The id charset ([0-9A-Za-z-_.:], checked by the contract)
			// is path-safe, so no escaping is needed.
			if err := g.getJSON(ctx, tp.targets[i]+"/debug/traces/"+id, &v); err != nil {
				var se *statusError
				if errors.As(err, &se) && se.code == http.StatusNotFound {
					out[i].Error = "not retained"
				} else {
					out[i].Error = err.Error()
				}
				return
			}
			out[i].Trace = &v
		}(i)
	}
	wg.Wait()
	return out
}
