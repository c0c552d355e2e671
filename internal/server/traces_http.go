package server

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"viewstags/internal/obs"
)

// The /debug/traces family: retrieval for the tail-sampled trace ring.
//
//	GET /debug/traces                 — list retained traces (filters below)
//	GET /debug/traces/{request_id}    — one trace by id
//
// Filters: ?route= (exact path), ?min_ms= (at least this slow),
// ?status= (ok | error | shed), ?limit= (max results). The gateway
// serves the same family and additionally stitches shard-side spans
// onto its own traces (see internal/cluster).

// TracesListResponse is the GET /debug/traces wire shape.
type TracesListResponse struct {
	Count  int             `json:"count"`
	Traces []obs.TraceView `json:"traces"`
}

// ParseTraceFilter reads the /debug/traces query parameters. Exported
// because the gateway's handler accepts the identical query grammar.
// The error string is ready for a 400 body; empty means ok.
func ParseTraceFilter(q url.Values) (obs.TraceFilter, string) {
	var f obs.TraceFilter
	f.Route = q.Get("route")
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return f, "invalid min_ms " + strconv.Quote(v)
		}
		f.MinDur = time.Duration(ms * float64(time.Millisecond))
	}
	switch st := q.Get("status"); st {
	case "", "all", "ok", "error", "shed":
		f.Status = st
	default:
		return f, "invalid status " + strconv.Quote(st) + " (want ok, error or shed)"
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return f, "invalid limit " + strconv.Quote(v)
		}
		f.Limit = n
	}
	return f, ""
}

// TraceIDFromPath extracts the {request_id} of a /debug/traces/{id}
// path; empty for the bare list route. Shared with the gateway.
func TraceIDFromPath(path string) string {
	id := strings.TrimPrefix(path, "/debug/traces")
	return strings.TrimPrefix(id, "/")
}

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if id := TraceIDFromPath(r.URL.Path); id != "" {
		if !obs.ValidRequestID(id) {
			WriteError(w, http.StatusBadRequest, "malformed request id")
			return
		}
		v, ok := s.traces.Get(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "trace %s not retained (tail sampling keeps errors, sheds and the slowest per route)", id)
			return
		}
		WriteJSON(w, http.StatusOK, v)
		return
	}
	f, errMsg := ParseTraceFilter(r.URL.Query())
	if errMsg != "" {
		WriteError(w, http.StatusBadRequest, "%s", errMsg)
		return
	}
	views := s.traces.List(f)
	WriteJSON(w, http.StatusOK, TracesListResponse{Count: len(views), Traces: views})
}
