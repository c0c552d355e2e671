package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"

	"viewstags/internal/obs"
	"viewstags/internal/server"
)

// The gateway's /debug/traces family mirrors the shard surface (same
// filter grammar, same tail-sampled ring underneath) and adds the one
// thing only the edge can do: stitching. GET /debug/traces/{id} fetches
// every shard's retained view of the same request id and returns the
// cross-process picture — gateway stage spans plus each shard's
// handler/predict spans — so a slow fan-out leg is attributable to a
// specific shard without grepping N daemons' logs. One request is one
// id on every daemon it touched, so each lookup is an exact match.

// StitchedTrace is the gateway's GET /debug/traces/{id} reply: the
// gateway-side trace plus each shard's retained view of the request.
type StitchedTrace struct {
	obs.TraceView
	Shards []ShardTraceView `json:"shards,omitempty"`
}

// ShardTraceView is one shard's contribution to a stitched trace.
// Error explains an absent Trace: "not retained" is the common case
// (tail sampling on the shard kept other traces), anything else is a
// fetch failure.
type ShardTraceView struct {
	Shard  int            `json:"shard"`
	Target string         `json:"target"`
	Error  string         `json:"error,omitempty"`
	Trace  *obs.TraceView `json:"trace,omitempty"`
}

func (g *Gateway) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if id := server.TraceIDFromPath(r.URL.Path); id != "" {
		if !obs.ValidRequestID(id) {
			server.WriteError(w, http.StatusBadRequest, "malformed request id")
			return
		}
		v, ok := g.traces.Get(id)
		if !ok {
			server.WriteError(w, http.StatusNotFound, "trace %s not retained (tail sampling keeps errors, sheds and the slowest per route)", id)
			return
		}
		st := StitchedTrace{TraceView: v}
		if r.URL.Query().Get("stitch") != "0" {
			st.Shards = g.stitchShards(r.Context(), id)
		}
		server.WriteJSON(w, http.StatusOK, st)
		return
	}
	f, errMsg := server.ParseTraceFilter(r.URL.Query())
	if errMsg != "" {
		server.WriteError(w, http.StatusBadRequest, "%s", errMsg)
		return
	}
	views := g.traces.List(f)
	server.WriteJSON(w, http.StatusOK, server.TracesListResponse{Count: len(views), Traces: views})
}

// stitchShards fetches each shard's retained trace for id concurrently.
// Absences are reported, not fatal: a stitched view with holes still
// answers "which leg was slow" for the shards that retained theirs.
func (g *Gateway) stitchShards(ctx context.Context, id string) []ShardTraceView {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ShardTimeout)
	defer cancel()
	tp := g.topo.Load()
	out := make([]ShardTraceView, len(tp.targets))
	var wg sync.WaitGroup
	for i := range tp.targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = ShardTraceView{Shard: i, Target: tp.targets[i]}
			var v obs.TraceView
			// The id charset ([0-9A-Za-z-_.:], enforced above) is
			// path-safe, so no escaping is needed.
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
