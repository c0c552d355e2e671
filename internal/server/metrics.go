package server

import (
	"sync/atomic"

	"viewstags/internal/obs"
)

// RouteMetrics holds one route's counters and its latency histogram.
// The counters are atomics (read with Load); Latency is an
// obs.Histogram whose Observe is allocation-free, so the middleware
// can record every request at load-test rates. Exemplars remembers the
// request id of the most recent observation in each latency bucket
// (also allocation-free), so a histogram spike links to a fetchable
// /debug/traces id.
type RouteMetrics struct {
	Requests atomic.Int64
	Errors   atomic.Int64
	// DecodeGeneral counts the requests whose body the fast edge decoder
	// declined, so they paid the encoding/json decode (edge_decode.go).
	// Only routes with a fast decoder ever count here; the rest read zero.
	DecodeGeneral atomic.Int64
	Latency       obs.Histogram
	Exemplars     obs.Exemplars
}

// maxExemplarsPerRoute bounds the exemplars surfaced per route on both
// /metrics and /v1/stats: the slowest occupied buckets are what link a
// tail spike to a trace; deeper history belongs to the trace ring.
const maxExemplarsPerRoute = 4

// Group is a metric group: the unit requests are counted in. A route's
// row names its group (Route.Group), and the label is both the group's
// /v1/stats key and its route label on /metrics.
type Group uint8

// The six groups are enumerated here and nowhere else: these constants,
// groupNames, and the fields of perGroup with ptrs, all in this order.
const (
	GroupPredict Group = iota
	GroupIngest
	GroupPlace
	GroupPreload
	// GroupInternal aggregates the shard-internal /internal/* routes the
	// cluster gateway drives, so shard operators can tell gateway
	// traffic from direct client traffic at a glance.
	GroupInternal
	GroupOther
	numGroups
)

var groupNames = [numGroups]string{"predict", "ingest", "place", "preload", "internal", "other"}

func (g Group) String() string { return groupNames[g] }

// perGroup is one T per metric group — counters in Metrics, their
// rendering in Snapshot, whose JSON keys are the tags here and the route
// label of every series beneath them on /metrics.
type perGroup[T any] struct {
	Predict  T `json:"predict" prom:"route"`
	Ingest   T `json:"ingest" prom:"route"`
	Place    T `json:"place" prom:"route"`
	Preload  T `json:"preload" prom:"route"`
	Internal T `json:"internal" prom:"route"`
	Other    T `json:"other" prom:"route"`
}

// ptrs indexes the fields by Group.
func (p *perGroup[T]) ptrs() [numGroups]*T {
	return [numGroups]*T{&p.Predict, &p.Ingest, &p.Place, &p.Preload, &p.Internal, &p.Other}
}

// Metrics is the server's counter set: per-group request counters and
// log-bucket latency histograms, cheap enough to leave on at load-test
// rates. /v1/stats renders quantile summaries from the histograms and
// GET /metrics exposes the full buckets for scraping.
type Metrics struct {
	perGroup[RouteMetrics]

	InFlight atomic.Int64
	Rejected atomic.Int64
	// Predictions counts individual predictions served — a batch of k
	// adds k, so throughput comparisons across batch sizes stay honest.
	// Events is the write-path analogue: view events accepted, counted
	// where they are accepted (the public and the shard-internal ingest),
	// so a gateway counts its own; journal replay is not among them.
	Predictions atomic.Int64
	Events      atomic.Int64
}

// NewMetrics returns a zeroed counter set.
func NewMetrics() *Metrics { return &Metrics{} }

// RouteSnapshot is one route's counters at a point in time. MeanMs and
// the quantiles are all derived from the same histogram snapshot, so
// the two surfaces (/v1/stats and /metrics) can never disagree.
type RouteSnapshot struct {
	Requests int64 `json:"requests" prom:"viewstags_requests_total,counter" help:"Requests served, by route group."`
	Errors   int64 `json:"errors" prom:"viewstags_request_errors_total,counter" help:"Requests answered with status >= 400, by route group."`
	// DecodeGeneral counts requests whose body took the encoding/json
	// decode. Always zero on routes without a fast decoder.
	DecodeGeneral int64   `json:"edge_decode_general" prom:"viewstags_edge_decode_general_total,counter" help:"Requests whose body the fast edge decoder declined to the encoding/json decode, by route group (zero on routes without a fast decoder)."`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	// Exemplars are the slowest buckets' most recent request ids —
	// each one a /debug/traces/{id} lookup away from its spans.
	Exemplars []obs.BucketExemplar `json:"exemplars,omitempty"`
}

// Snapshot is the request-level part of both daemons' /v1/stats, and
// through its prom tags of their /metrics (obs.TextWriter.Encode).
type Snapshot struct {
	perGroup[RouteSnapshot]
	InFlight    int64 `json:"in_flight" prom:"viewstags_in_flight,gauge" help:"Requests currently being served."`
	Rejected    int64 `json:"rejected" prom:"viewstags_rejected_total,counter" help:"Requests shed by the concurrency limiter."`
	Predictions int64 `json:"predictions" prom:"viewstags_predictions_total,counter" help:"Individual predictions served (a batch of k adds k)."`
	Events      int64 `json:"events"`
	// The process's resident set and its high-water mark; absent where
	// /proc/self/status is.
	RSSBytes     int64 `json:"rss_bytes,omitempty" prom:"process_resident_memory_bytes,gauge" help:"Resident set size (VmRSS)."`
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty" prom:"viewstags_process_peak_rss_bytes,gauge" help:"Resident set high-water mark since exec (VmHWM): equal to the resident size until something is given back, so it says whether boot or traffic set the peak."`
}

func snapRoute(m *RouteMetrics) RouteSnapshot {
	s := RouteSnapshot{
		Requests:      m.Requests.Load(),
		Errors:        m.Errors.Load(),
		DecodeGeneral: m.DecodeGeneral.Load(),
	}
	h := m.Latency.Snapshot()
	if h.Count > 0 {
		s.MeanMs = h.Mean() * 1e3
		s.P50Ms = h.Quantile(0.50) * 1e3
		s.P95Ms = h.Quantile(0.95) * 1e3
		s.P99Ms = h.Quantile(0.99) * 1e3
		s.Exemplars = m.Exemplars.Top(maxExemplarsPerRoute)
	}
	return s
}

// Snapshot captures all counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		InFlight:    m.InFlight.Load(),
		Rejected:    m.Rejected.Load(),
		Predictions: m.Predictions.Load(),
		Events:      m.Events.Load(),
	}
	dst := s.ptrs()
	for g, rm := range m.ptrs() {
		*dst[g] = snapRoute(rm)
	}
	s.RSSBytes, s.PeakRSSBytes, _ = obs.ResidentMemory()
	return s
}

// WriteProm renders the route latency histograms, with their exemplars:
// the part of the request-level families /v1/stats carries only as
// quantiles, so Snapshot cannot declare it. Shared by both daemons'
// /metrics.
func (m *Metrics) WriteProm(w *obs.TextWriter) {
	for g, rm := range m.ptrs() {
		w.Histogram("viewstags_request_duration_seconds", "Request wall time by route group, measured inside the middleware.",
			[]obs.Label{{Name: "route", Value: groupNames[g]}}, rm.Latency.Snapshot(), rm.Exemplars.Top(maxExemplarsPerRoute)...)
	}
}
