package scenario

import (
	"context"
	"log"
	"net/http"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/server"
)

// Flight-recorder integration: the engine treats the cluster as a
// black box, so its trace evidence comes over the same /debug/traces
// surface an operator would curl. After every fired chaos event (and
// after an SLO breach) it dumps the gateway's retained ring to
// traces_<event>.json next to the report, and after traffic ends it
// records the worst retained trace id per stream so the scorecard can
// name the exact request behind a violated or near-miss SLO.

// TraceRefs are the worst retained trace ids fetched from the
// gateway's /debug/traces after traffic ended, plus the flight-recorder
// dump files the run wrote. The scorecard attributes SLO rows to these
// ids; fetch one with GET /debug/traces/{id} on the gateway for the
// stitched cross-process view.
type TraceRefs struct {
	SlowestRead  string   `json:"slowest_read,omitempty"`
	SlowestWrite string   `json:"slowest_write,omitempty"`
	ErrorRead    string   `json:"error_read,omitempty"`
	ErrorWrite   string   `json:"error_write,omitempty"`
	ShedRead     string   `json:"shed_read,omitempty"`
	ShedWrite    string   `json:"shed_write,omitempty"`
	Dumps        []string `json:"dumps,omitempty"`
}

// tracer fetches trace evidence from the gateway.
type tracer struct {
	base   string
	client *http.Client
	logger *log.Logger
}

// fetch lists retained traces matching the query string (no leading
// "?"). Failures degrade to an empty list: trace evidence is garnish
// on a report, never a reason to abort a run.
func (t *tracer) fetch(ctx context.Context, query string) []obs.TraceView {
	var lst server.TracesListResponse
	url := t.base + "/debug/traces"
	if query != "" {
		url += "?" + query
	}
	if err := getJSONInto(ctx, t.client, url, &lst); err != nil {
		return nil
	}
	return lst.Traces
}

// worstID returns the slowest retained trace id for the query, "" when
// nothing matched.
func (t *tracer) worstID(ctx context.Context, query string) string {
	views := t.fetch(ctx, query)
	if len(views) == 0 {
		return ""
	}
	return views[0].ID
}

// refs assembles the scorecard's trace attributions: per stream, the
// slowest trace, the worst error and the worst shed.
func (t *tracer) refs(ctx context.Context) TraceRefs {
	return TraceRefs{
		SlowestRead:  t.worstID(ctx, "route=/v1/predict&limit=1"),
		SlowestWrite: t.worstID(ctx, "route=/v1/ingest&limit=1"),
		ErrorRead:    t.worstID(ctx, "route=/v1/predict&status=error&limit=1"),
		ErrorWrite:   t.worstID(ctx, "route=/v1/ingest&status=error&limit=1"),
		ShedRead:     t.worstID(ctx, "route=/v1/predict&status=shed&limit=1"),
		ShedWrite:    t.worstID(ctx, "route=/v1/ingest&status=shed&limit=1"),
	}
}

// dump writes the gateway's retained ring to traces_<event>.json in
// dir, returning the path ("" on failure — e.g. the chaos event took
// the gateway itself down, which the log line then explains).
func (t *tracer) dump(dir, event string) string {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	views := t.fetch(ctx, "limit=256&status=all")
	path, err := obs.WriteFlightDump(dir, event, views)
	if err != nil {
		t.logger.Printf("flight recorder: dump %s: %v", event, err)
		return ""
	}
	t.logger.Printf("flight recorder: %d gateway traces -> %s", len(views), path)
	return path
}

// attributeTrace resolves the trace id backing one SLO row, from the
// refs the engine fetched: latency and throughput rows point at the
// stream's slowest trace, error-rate rows at its worst error, shed-rate
// rows at its worst shed. Cluster rows carry no single request.
func attributeTrace(refs *TraceRefs, o *SLO) string {
	if refs == nil {
		return ""
	}
	read := o.Stream == "read"
	switch o.Metric {
	case MetricErrorRate:
		if read {
			return refs.ErrorRead
		}
		return refs.ErrorWrite
	case MetricShedRate:
		if read {
			return refs.ShedRead
		}
		return refs.ShedWrite
	case MetricP50, MetricP90, MetricP99, MetricThroughput:
		if read {
			return refs.SlowestRead
		}
		return refs.SlowestWrite
	}
	return ""
}
