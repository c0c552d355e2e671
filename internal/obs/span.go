package obs

import (
	"sync"
	"time"
)

// Spans are the per-request flight data: each request carries a pooled
// Trace holding a fixed array of child spans, one per instrumented
// stage (gateway decode/per-shard fan-out leg/merge/encode; shard
// handler/predict/journal; background fold/WAL/checkpoint). Recording a
// span is allocation-free — the Trace comes from a pool, the span array
// is fixed, and names must be string constants — so instrumentation can
// stay on even on the binary-wire hot path. Finished traces are offered
// to the process TraceStore, which tail-samples them (see tracestore.go).

// MaxSpans bounds the spans one trace can carry. A gateway request
// records decode + one leg per shard asked + merge + encode; a shard
// request a handful. Beyond the cap spans are counted, not recorded, so
// a pathological request degrades to a truncated trace rather than an
// allocation.
const MaxSpans = 48

// NoShard marks a span that is not a per-shard fan-out leg.
const NoShard = -1

// Span is one timed stage of a request. StartNs is the offset from the
// trace's own start, so spans stay meaningful across processes with
// unsynchronized clocks.
type Span struct {
	Name    string `json:"name"`
	Shard   int    `json:"shard"` // NoShard when not a fan-out leg
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Status  string `json:"status,omitempty"` // "" = ok
}

// Trace is one request's pooled span buffer. Acquire with GetTrace,
// record spans with Add while the request runs (single-goroutine), then
// hand it to TraceStore.Offer — which either retains it or returns it
// to the pool. A Trace must not be touched after Offer.
type Trace struct {
	id      string
	route   string
	start   time.Time
	parent  string // the upstream span, e.g. "gateway/internal/predict"
	spans   [MaxSpans]Span
	n       int
	dropped int
	status  int
	shed    bool
	durNs   int64
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// GetTrace takes a reset Trace from the pool and stamps its identity.
func GetTrace(id, route string, start time.Time) *Trace {
	t := tracePool.Get().(*Trace)
	t.id = id
	t.route = route
	t.start = start
	t.parent = ""
	t.n = 0
	t.dropped = 0
	t.status = 0
	t.shed = false
	t.durNs = 0
	return t
}

// PutTrace returns a trace the store did not retain. Callers normally
// go through TraceStore.Offer instead.
func PutTrace(t *Trace) {
	if t != nil {
		tracePool.Put(t)
	}
}

// SetParent records the upstream span the trace is a child of
// ("role/span"; a shard names the gateway leg a stream frame is, e.g.
// "gateway/internal/predict").
func (t *Trace) SetParent(p string) { t.parent = p }

// Add records one child span. Allocation-free: name must be a string
// constant (or an already-live string), shard is NoShard unless the
// span is a per-shard fan-out leg.
func (t *Trace) Add(name string, shard int, start time.Time, dur time.Duration, status string) {
	if t == nil {
		return
	}
	if t.n >= MaxSpans {
		t.dropped++
		return
	}
	t.spans[t.n] = Span{
		Name:    name,
		Shard:   shard,
		StartNs: start.Sub(t.start).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
		Status:  status,
	}
	t.n++
}

// MarkShed flags the trace as load-shed (the limiter's 503, or a
// gateway turning traffic away from a down shard) — always retained by
// the store, filterable as status=shed.
func (t *Trace) MarkShed() {
	if t != nil {
		t.shed = true
	}
}

// End stamps the request outcome. The trace stays live until Offer.
// A MarkShed flag set earlier survives regardless of shed.
func (t *Trace) End(status int, shed bool, dur time.Duration) {
	if t == nil {
		return
	}
	t.status = status
	t.shed = t.shed || shed
	t.durNs = dur.Nanoseconds()
}

// TraceView is the JSON shape of a retained trace — what
// /debug/traces returns and flight-recorder dumps contain.
type TraceView struct {
	ID      string `json:"id"`
	Route   string `json:"route"`
	Status  int    `json:"status"`
	Shed    bool   `json:"shed,omitempty"`
	StartNs int64  `json:"start_unix_ns"`
	DurNs   int64  `json:"dur_ns"`
	Parent  string `json:"parent,omitempty"`
	Dropped int    `json:"spans_dropped,omitempty"`
	Spans   []Span `json:"spans"`
}

// view deep-copies the trace into its JSON shape. Called by the store
// under its shard lock: retained traces are recycled on eviction, so
// readers must never hold references into the pooled struct.
func (t *Trace) view() TraceView {
	v := TraceView{
		ID:      t.id,
		Route:   t.route,
		Status:  t.status,
		Shed:    t.shed,
		StartNs: t.start.UnixNano(),
		DurNs:   t.durNs,
		Parent:  t.parent,
		Dropped: t.dropped,
		Spans:   make([]Span, t.n),
	}
	copy(v.Spans, t.spans[:t.n])
	return v
}

// idMatches reports whether the trace answers for the requested id: one
// request is one id on every daemon it touched, so exactly.
func (t *Trace) idMatches(id string) bool { return t.id == id }
