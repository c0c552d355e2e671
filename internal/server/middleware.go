package server

import (
	"context"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"viewstags/internal/obs"
)

// statusWriter captures the response code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection beneath the
// middleware stack; /internal/stream hijacks through it.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// RetryAfterSecs renders a backoff hint as a Retry-After value: whole
// seconds rounded up, with a floor of one second (the header takes
// integers, and "0" would tell clients to hammer a saturated server).
// Every 503 takes its hint from what actually clears the condition: the
// concurrency limiter passes 0 (capacity frees as soon as any in-flight
// request finishes), the ingest path passes the fold interval (the
// buffer only clears when the next fold drains it), and the gateway its
// health interval or whatever a shard reported.
func RetryAfterSecs(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// RequestID returns the request's trace id — set by the trace
// middleware before any handler runs, so handlers and fan-out code can
// propagate it without re-deriving.
func RequestID(r *http.Request) string { return r.Header.Get(obs.TraceHeader) }

// traceKey carries the request's span buffer through the context.
type traceKey struct{}

// TraceFrom returns the request's span buffer, or nil when tracing is
// off (no store attached) or the route's row says Untraced. Handlers call
// Trace.Add on the result — nil-safe, so no guard is needed.
func TraceFrom(r *http.Request) *obs.Trace {
	tr, _ := r.Context().Value(traceKey{}).(*obs.Trace)
	return tr
}

// Policy is what the middleware chain applies to a route, as bits of its
// row. The zero value is the common case: limited, traced, metered,
// reachable over HTTP only.
type Policy uint8

const (
	// Unlimited bypasses the concurrency limiter. A loaded server must
	// still answer its health checker (liveness AND readiness: shedding a
	// probe reads as "unready" and would eject a merely busy node from
	// rotation), expose the counters that explain the overload, answer
	// the gateway's cheap topology probe and serve the trace ring — an
	// overload is precisely when /debug/traces is wanted. The stream
	// upgrade is unlimited for a different reason: its "request" lasts as
	// long as the connection, so it must not hold a slot — the frames it
	// carries each take one on their own way through the chain.
	Unlimited Policy = 1 << iota
	// Untraced records no spans: probes, scrape and stats surfaces, and
	// the /debug/traces family itself (tracing the trace reader would fill
	// the ring with its own reflections).
	Untraced
	// Unmetered counts in no group. Only the stream upgrade: a connection
	// lifetime is not a request latency, and the frames it carries are
	// counted one by one.
	Unmetered
	// Streamable rows may ride a data-plane stream frame
	// (DecodeStreamRequest refuses every other path); a frame is served
	// by the chain its row is mounted with, the one a POST takes.
	Streamable

	// Probe is the policy of the surfaces that must outlive an overload
	// and never describe themselves.
	Probe = Unlimited | Untraced
)

// Route is one row of a daemon's route table: the path it is mounted at,
// the method it takes, the metric group it counts in, what the chain
// applies to it, and its handler as a method expression of the daemon
// type D — so codec-level code (the stream decoder, the docs test) reads
// the table without a daemon. What applies to a route is this row and
// nothing else; the chain (Mount) is code and reads only the row.
type Route[D any] struct {
	Path string
	// Method is http.MethodGet or http.MethodPost. A GET row also admits
	// HEAD (health probes use it; net/http drops the body); anything else
	// is a 405 with Allow.
	Method  string
	Group   Group
	Policy  Policy
	Handler func(D, http.ResponseWriter, *http.Request)
}

// UnmatchedRoute labels the traces of requests that match no row — a
// 404 or the mux's 301 to a cleaned path. They are limited and counted
// as GroupOther; their raw path is never a label, so nothing keyed by
// route grows with what clients send.
const UnmatchedRoute = "unmatched"

// Middleware is the serving tier's shared HTTP middleware stack —
// request-id tracing, concurrency limiting, panic recovery, optional
// access logging and per-group metrics — factored out of Server so the
// cluster gateway mounts its table on the identical chain (same
// shedding semantics, same counters) instead of growing a parallel
// one.
type Middleware struct {
	metrics     *Metrics
	logger      *log.Logger
	sem         chan struct{}
	logRequests bool
	// traces, when set, turns on span recording: every traced request
	// carries a pooled span buffer and offers it to this store at the
	// end (tail sampling decides retention).
	traces *obs.TraceStore
	// onPanic, when set, is the flight-recorder hook the recovery
	// middleware fires after logging a handler panic.
	onPanic func()
}

// NewMiddleware builds a stack. maxInFlight bounds concurrently served
// requests (excess requests are shed with 503 + Retry-After); metrics
// and logger must be non-nil.
func NewMiddleware(maxInFlight int, metrics *Metrics, logger *log.Logger, logRequests bool) *Middleware {
	return &Middleware{
		metrics:     metrics,
		logger:      logger,
		sem:         make(chan struct{}, maxInFlight),
		logRequests: logRequests,
	}
}

// SetTraceStore attaches the tail-sampled trace ring and turns span
// recording on. Call before serving traffic.
func (m *Middleware) SetTraceStore(ts *obs.TraceStore) { m.traces = ts }

// SetPanicHook installs the flight-recorder callback the recovery
// middleware fires after a handler panic (after the stack is logged).
// Call before serving traffic.
func (m *Middleware) SetPanicHook(f func()) { m.onPanic = f }

// mounted is one row's chain. The mux hands it back for a request that
// matches the row, which is how Mount tells a match from the mux's own
// 404 and redirect handlers.
type mounted struct{ http.Handler }

// serve is the innermost stage of a row's chain: the method guard, then
// the handler.
func (rt *Route[D]) serve(d D, w http.ResponseWriter, r *http.Request) {
	if r.Method == rt.Method || r.Method == http.MethodHead && rt.Method == http.MethodGet {
		rt.Handler(d, w, r)
		return
	}
	allow := rt.Method
	if allow == http.MethodGet {
		allow = "GET, HEAD"
	}
	w.Header().Set("Allow", allow)
	WriteError(w, http.StatusMethodNotAllowed, "use %s", rt.Method)
}

// Mount builds daemon d's handler from its table: every row's handler
// behind the chain its row asks for, on one mux. A request is resolved
// to its row once, by the mux; each stage of the row's chain closes over
// what it needs of the row. A request that matches no row runs the chain
// of a fixed row (UnmatchedRoute) around whatever the mux answers it
// with.
func Mount[D any](m *Middleware, d D, table []Route[D]) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range table {
		rt := rt
		mux.Handle(rt.Path, mounted{m.chain(rt.Path, rt.Group, rt.Policy, func(w http.ResponseWriter, r *http.Request) {
			rt.serve(d, w, r)
		})})
	}
	unmatched := m.chain(UnmatchedRoute, GroupOther, 0, mux.ServeHTTP)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _ := mux.Handler(r)
		if row, ok := h.(mounted); ok {
			row.ServeHTTP(w, r)
			return
		}
		unmatched.ServeHTTP(w, r)
	})
}

// chain wraps next in the stack, innermost first: metrics ← recovery ←
// logging ← concurrency limit ← trace, each stage only if the row's
// policy asks for it. The limiter sits outside everything but the trace
// assignment, so a saturated server sheds load before doing any work —
// and even a shed 503 carries a request id for the client to quote.
func (m *Middleware) chain(route string, group Group, policy Policy, next http.HandlerFunc) http.Handler {
	var h http.Handler = next
	if policy&Unmetered == 0 {
		h = m.withMetrics(m.metrics.ptrs()[group], h)
	}
	h = m.withRecovery(h)
	if m.logRequests {
		h = m.withLogging(h)
	}
	if policy&Unlimited == 0 {
		h = m.withLimit(h)
	}
	return m.withTrace(route, policy&Untraced == 0, h)
}

// withTrace assigns the request id: an inbound X-Request-Id is honored
// when well-formed (the gateway propagates ids to shards this way),
// anything else is replaced. The id is set on the request headers (for
// handlers and fan-out to read back) and echoed on the response before
// any handler runs, so WriteError can include it in error envelopes.
//
// When a trace store is attached, the request also gets a pooled span
// buffer from obs (reachable via TraceFrom): downstream stages record
// child spans into it, and the finished trace is offered to the
// tail-sampling ring — including requests the limiter sheds, which is
// the whole point of sampling at the outermost layer.
//
// route is the trace's route label: the row's pattern, never the raw
// path, so the store's per-route state is bounded by the table. A stream
// frame's trace is a child of the gateway leg that sent it, which its
// path names (streamRoute.parent); nothing on the wire says so.
func (m *Middleware) withTrace(route string, traced bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
			r.Header.Set(obs.TraceHeader, id)
		}
		w.Header().Set(obs.TraceHeader, id)
		if m.traces == nil || !traced {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		tr := obs.GetTrace(id, route, start)
		if f, ok := w.(*streamWriter); ok {
			tr.SetParent(f.parent)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), traceKey{}, tr)))
		// A 503 is backpressure by design everywhere in this tier —
		// the local limiter's shed or a shard's propagated one — so it
		// counts as shed here too, matching how the scenario engine's
		// collector classifies it.
		tr.End(sw.status, sw.status == http.StatusServiceUnavailable, time.Since(start))
		m.traces.Offer(tr)
	})
}

// withLimit bounds in-flight requests with a semaphore; requests beyond
// the bound get an immediate 503 with Retry-After, which keeps tail
// latency flat under overload instead of queueing without bound.
func (m *Middleware) withLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case m.sem <- struct{}{}:
			defer func() { <-m.sem }()
			next.ServeHTTP(w, r)
		default:
			m.metrics.Rejected.Add(1)
			TraceFrom(r).MarkShed()
			w.Header().Set("Retry-After", RetryAfterSecs(0))
			WriteError(w, http.StatusServiceUnavailable, "server at capacity")
		}
	})
}

// withRecovery converts handler panics into 500s so one poisoned
// request cannot take the daemon down.
func (m *Middleware) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				m.logger.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				WriteError(w, http.StatusInternalServerError, "internal error")
				if m.onPanic != nil {
					// Flight recorder: a panic is exactly the moment the
					// ring's recent history is worth preserving.
					m.onPanic()
				}
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withLogging emits one access-log line per request, trace id
// included — the line the end-to-end trace test greps for.
func (m *Middleware) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		m.logger.Printf("server: %s %s %d %s trace=%s", r.Method, r.URL.Path, sw.status, time.Since(start), RequestID(r))
	})
}

// withMetrics counts requests and errors in the row's group and records
// wall time into the group's latency histogram (allocation-free Observe).
func (m *Middleware) withMetrics(rm *RouteMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.metrics.InFlight.Add(1)
		defer m.metrics.InFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		d := time.Since(start)
		rm.Requests.Add(1)
		rm.Latency.Observe(d)
		rm.Exemplars.Observe(d, RequestID(r), start.Add(d))
		status := ""
		if sw.status >= 400 {
			rm.Errors.Add(1)
			status = "error"
		}
		TraceFrom(r).Add("handler", obs.NoShard, start, d, status)
	})
}
