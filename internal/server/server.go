// Package server is the online serving layer for the paper's closing
// conjecture: an HTTP/JSON service that answers, at interactive
// latency, "where will this fresh upload be watched, and where should
// its replicas and cache copies go?"
//
// Endpoints (see API.md at the repository root for the full wire
// reference — request/response schemas, error envelope, limiter and
// backpressure semantics):
//
//	POST /v1/predict  — tag-based view-distribution prediction, single
//	                    or batched, all three tagviews weightings
//	POST /v1/ingest   — batched live view events, folded into the
//	                    serving snapshot by the ingest compactor
//	POST /v1/place    — replica-placement recommendation (internal/placement)
//	POST /v1/preload  — per-country edge-cache preload advisory
//	                    (internal/geocache push policies)
//	GET  /v1/tags     — highest-volume tag profiles
//	GET  /v1/stats    — request counters per route + ingest stream stats
//	GET  /healthz     — liveness + snapshot shape + fold epoch
//
// /v1/predict, /v1/ingest, /v1/tags and /debug/traces are the public
// contract (edge.go): one implementation over a Backend, which this node
// is and the cluster gateway is too.
//
// Plus the shard-internal routes a cluster gateway (internal/cluster)
// drives — partial predictions, owner-routed ingest, topology metadata:
//
//	POST /internal/predict — unnormalized partial tag mixtures
//	POST /internal/ingest  — owned-tag events + upload announcements
//	GET  /internal/stream  — Upgrade to the multiplexed frame stream the
//	                         gateway carries the two POSTs above on
//	GET  /internal/meta    — shard identity, ring signature, globals
//
// The read path loads tag profiles from an internal/profilestore
// snapshot — lock-free, allocation-free per prediction — so a single
// core sustains tens of thousands of predictions per second; batching
// amortizes the HTTP+JSON overhead further (see BenchmarkServePredict).
// The write path (internal/ingest) accumulates view events off the read
// path and installs fresh snapshots through an atomic swap, so readers
// never block on ingestion.
package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/persist"
	"viewstags/internal/placement"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// serverRoutes is the daemon's route table: what is mounted, and every
// policy the middleware chain, the metrics, the stream decoder and
// API.md's "Route policy" table apply to it. It begins with the public
// contract's rows (EdgeRoutes), which the gateway's table begins with
// too. Adding a route is one row here, its handler, and its API.md
// heading. (Assigned in init, not by an initializer: handleStream reaches
// DecodeStreamRequest, which reads the table, and Go refuses that as an
// initialization cycle.)
var serverRoutes []Route[*Server]

func init() {
	serverRoutes = append(EdgeRoutes(func(s *Server) *Edge { return s.edge }), []Route[*Server]{
		{Path: "/v1/place", Method: "POST", Group: GroupPlace, Handler: (*Server).handlePlace},
		{Path: "/v1/preload", Method: "POST", Group: GroupPreload, Handler: (*Server).handlePreload},
		{Path: "/v1/stats", Method: "GET", Group: GroupOther, Policy: Probe, Handler: (*Server).handleStats},
		{Path: "/v1/checkpoint", Method: "POST", Group: GroupOther, Handler: (*Server).handleCheckpoint},
		{Path: "/healthz", Method: "GET", Group: GroupOther, Policy: Probe, Handler: (*Server).handleHealth},
		{Path: "/readyz", Method: "GET", Group: GroupOther, Policy: Probe, Handler: (*Server).handleReady},
		{Path: "/metrics", Method: "GET", Group: GroupOther, Policy: Probe, Handler: (*Server).handleMetrics},
		{Path: InternalPredictPath, Method: "POST", Group: GroupInternal, Policy: Streamable, Handler: (*Server).handleInternalPredict},
		{Path: InternalIngestPath, Method: "POST", Group: GroupInternal, Policy: Streamable, Handler: (*Server).handleInternalIngest},
		{Path: StreamPath, Method: "GET", Group: GroupInternal, Policy: Probe | Unmetered, Handler: (*Server).handleStream},
		{Path: InternalMetaPath, Method: "GET", Group: GroupInternal, Policy: Probe, Handler: (*Server).handleInternalMeta},
		{Path: "/internal/transfer/export", Method: "POST", Group: GroupInternal, Handler: (*Server).handleTransferExport},
		{Path: "/internal/transfer/import", Method: "POST", Group: GroupInternal, Handler: (*Server).handleTransferImport},
		{Path: "/internal/transfer/adopt", Method: "POST", Group: GroupInternal, Handler: (*Server).handleTransferAdopt},
	}...)
	for _, rt := range serverRoutes {
		if rt.Policy&Streamable != 0 {
			streamable = append(streamable, streamRoute{rt.Path, "gateway" + rt.Path})
		}
	}
}

// Routes returns the daemon's route table, in registration order.
// Documentation tests hold it against API.md.
func Routes() []Route[*Server] { return slices.Clone(serverRoutes) }

// Common is what both daemons take, the node in Config and the gateway
// in cluster.GatewayConfig: the request bounds, the logger and the ring's
// replica factor.
type Common struct {
	// MaxInFlight bounds concurrently served requests; excess requests
	// are rejected with 503 rather than queued, so overload degrades
	// crisply (default 256).
	MaxInFlight int
	// MaxBatch bounds the items accepted in one batched predict or
	// ingest call (default 1024).
	MaxBatch int
	// Logger receives one line per request when LogRequests is set, and
	// panic reports always. Nil uses the standard logger.
	Logger *log.Logger
	// LogRequests enables per-request access logging (off by default:
	// at load-test rates the log write dominates the handler).
	LogRequests bool
	// Replicas is the copies-per-tag count the cluster's ring places,
	// the same on every shard and the gateway (0 and 1 both mean
	// unreplicated).
	Replicas int
}

// WithDefaults is c with each unset field given DefaultConfig's value: a
// bound or replica count that is zero or negative, and a nil Logger,
// which becomes the standard logger.
func (c Common) WithDefaults() Common {
	def := DefaultConfig().Common
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = def.MaxInFlight
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = def.MaxBatch
	}
	if c.Replicas <= 0 {
		c.Replicas = def.Replicas
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// Config parameterizes the service.
type Config struct {
	Common
	// ShardIndex/ShardCount identify this node's slice of a
	// tag-partitioned cluster (cmd/serve -shard i/n), reported by
	// /internal/meta so a gateway can verify its target list. The
	// standalone default is shard 0 of 1.
	ShardIndex int
	ShardCount int
	// RingSignature and Topology are derived, not set: New builds the
	// node's ring from ShardCount and Replicas, as the gateway builds its
	// own from its target count and replicas, and /internal/meta reports
	// that ring's signature. A non-zero value that disagrees with the
	// derived ring is refused.
	RingSignature string
	Topology      *ring.Ring
}

// DefaultConfig returns the standard serving configuration.
func DefaultConfig() Config {
	return Config{Common: Common{MaxInFlight: 256, MaxBatch: 1024, Replicas: 1}}
}

// shardIdent is the node's mutable cluster identity: its index on the
// placement ring. /internal/transfer adopt swaps it atomically when a
// live reshard re-homes the node, so the hot paths read it lock-free
// while the rest of Config stays immutable.
type shardIdent struct {
	index int
	ring  *ring.Ring
}

// Server wires the store, the placement recommender and the optional
// catalog-backed preload advisor behind the HTTP mux.
type Server struct {
	cfg     Config
	store   *profilestore.Store
	rec     *placement.Recommender
	metrics *Metrics
	logger  *log.Logger
	mw      *Middleware
	handler http.Handler
	// edge is the public contract over this node as its Backend, and
	// countries the country table it answers over.
	edge      *Edge
	countries *Countries

	// scratch recycles per-request prediction buffers.
	scratch *profilestore.VecPool

	// ing is the streaming write path's accumulator; nil until
	// EnableIngest, which keeps /v1/ingest answering 503 ("disabled")
	// on read-only deployments.
	ing *ingest.Accumulator
	// foldInterval is the compactor cadence EnableIngest was told about;
	// it is the Retry-After hint for ingest backpressure (the buffer
	// only clears when the next fold drains it).
	foldInterval time.Duration

	// ident is the mutable cluster identity (shard index and ring).
	// Reads are lock-free; only /internal/transfer/adopt swaps it.
	ident atomic.Pointer[shardIdent]

	// foldNow, when set (SetFoldHook), synchronously folds any pending
	// ingest deltas into the serving snapshot — the transfer routes
	// call it so exports and imports operate on fully folded state.
	foldNow func() (bool, error)

	// ready gates /readyz: false (the construction default) until the
	// daemon finishes recovery and installs its first serving snapshot,
	// so orchestrators can keep traffic away from a node still
	// replaying its journal while /healthz keeps answering liveness.
	ready atomic.Bool

	// Durable-state hooks; nil until EnablePersist, which keeps
	// /v1/checkpoint answering 503 ("disabled") on in-memory
	// deployments.
	persistStats func() persist.Stats
	checkpoint   func() (CheckpointStatus, error)
	// walHist/ckptHist are the persist tier's live latency histograms
	// (SetPersistHists); nil when the daemon is in-memory only. Read by
	// GET /metrics.
	walHist  *obs.Histogram
	ckptHist *obs.Histogram

	// streams tracks the hijacked /internal/stream connections, which
	// http.Server.Shutdown cannot see; DrainStreams ends them.
	streams streamSet

	// traces is the tail-sampled trace ring behind /debug/traces and
	// the flight recorder; always on (span recording is allocation-free
	// and the ring is bounded).
	traces *obs.TraceStore

	// mu serializes snapshot installs (ingest folds and slice
	// transfers); no request path takes it.
	mu sync.Mutex

	// cat is the served catalog /v1/preload ranks and colScratch the pool
	// of column scratch sized for it (profilestore.ColumnLen); nil until
	// SetCatalog — never, on a shard or over a crawled dataset, which has no
	// synthetic catalog.
	cat        *synth.Served
	colScratch *profilestore.VecPool
}

// New builds a server over a profile store. The world is taken from the
// store's current snapshot.
func New(cfg Config, store *profilestore.Store) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("server: nil store")
	}
	cfg.Common = cfg.Common.WithDefaults()
	if cfg.ShardCount <= 0 {
		cfg.ShardCount = 1
	}
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
		return nil, fmt.Errorf("server: shard index %d out of range for %d shards", cfg.ShardIndex, cfg.ShardCount)
	}
	rg, err := ring.New(cfg.ShardCount, cfg.Replicas)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if sig := rg.Signature(); cfg.RingSignature != "" && cfg.RingSignature != sig ||
		cfg.Topology != nil && cfg.Topology.Signature() != sig {
		return nil, fmt.Errorf("server: configured ring disagrees with shard %d of %d at %d replicas (signature %s)",
			cfg.ShardIndex, cfg.ShardCount, cfg.Replicas, sig)
	}
	world := store.Load().World()
	s := &Server{
		cfg:       cfg,
		store:     store,
		rec:       placement.NewRecommender(world),
		metrics:   NewMetrics(),
		logger:    cfg.Logger,
		countries: NewCountries(world.Codes()),
	}
	s.ident.Store(&shardIdent{index: cfg.ShardIndex, ring: rg})
	s.mw = NewMiddleware(cfg.MaxInFlight, s.metrics, cfg.Logger, cfg.LogRequests)
	s.traces = obs.NewTraceStore(0)
	s.mw.SetTraceStore(s.traces)
	s.scratch = profilestore.NewVecPool(world.N())
	s.edge = NewEdge(s, cfg.MaxBatch, s.metrics, s.traces)
	s.handler = Mount(s.mw, s, serverRoutes)
	return s, nil
}

// SetCatalog installs the served form of the synthetic catalog, enabling
// /v1/preload: each request ranks it against the snapshot being served at
// that moment, tag-push under the request's weighting. Call before
// serving traffic.
func (s *Server) SetCatalog(cat *synth.Served) error {
	if cat == nil {
		return fmt.Errorf("server: nil catalog")
	}
	if got, want := cat.World.N(), s.world().N(); got != want {
		return fmt.Errorf("server: catalog over %d countries, snapshot over %d", got, want)
	}
	s.cat, s.colScratch = cat, profilestore.NewVecPool(profilestore.ColumnLen(cat))
	return nil
}

// EnableIngest attaches the streaming write path: /v1/ingest starts
// accepting events into acc. The caller runs the compactor that drains
// acc (normally ingest.Compactor over ApplyDeltas); the server only
// feeds it. foldInterval is that compactor's cadence — it becomes the
// Retry-After hint on backpressure 503s, so shed clients back off for
// the time that actually clears the buffer (<= 0 falls back to a
// one-second hint). Call before serving traffic.
func (s *Server) EnableIngest(acc *ingest.Accumulator, foldInterval time.Duration) error {
	if acc == nil {
		return fmt.Errorf("server: nil accumulator")
	}
	s.ing = acc
	s.foldInterval = foldInterval
	return nil
}

// CheckpointStatus is the admin /v1/checkpoint response: the drain
// generation and fold epoch the freshly written checkpoint covers.
type CheckpointStatus struct {
	Gen   uint64 `json:"gen"`
	Epoch uint64 `json:"epoch"`
}

// EnablePersist attaches the durable-state surface: stats feeds the
// persist blocks of /healthz and /v1/stats, checkpoint backs the admin
// POST /v1/checkpoint route (normally a closure over the compactor's
// CheckpointNow). A nil checkpoint is allowed for read-only durable
// deployments (-ingest-interval 0 with -data-dir): stats stay visible
// and /v1/checkpoint answers 503 naming the reason. Call before
// serving traffic.
func (s *Server) EnablePersist(stats func() persist.Stats, checkpoint func() (CheckpointStatus, error)) error {
	if stats == nil {
		return fmt.Errorf("server: nil persist stats hook")
	}
	s.persistStats = stats
	s.checkpoint = checkpoint
	return nil
}

// SetPersistHists attaches the durable tier's live latency histograms
// — WAL append and checkpoint duration, normally persist.Manager's
// WALAppendHist/CheckpointHist — so GET /metrics can expose them.
// Optional companion to EnablePersist; either argument may be nil.
func (s *Server) SetPersistHists(wal, ckpt *obs.Histogram) {
	s.walHist = wal
	s.ckptHist = ckpt
}

// SetFoldHook attaches a synchronous fold trigger (normally a closure
// over the ingest compactor's FoldNow): the transfer routes call it
// before exporting or merging so the streamed slice reflects every
// acknowledged event, not just the last fold. Optional; without it the
// routes serve whatever the current snapshot holds.
func (s *Server) SetFoldHook(f func() (bool, error)) { s.foldNow = f }

// SetReady flips /readyz to 200: call once recovery has finished and
// the first serving snapshot is installed. (Construction leaves the
// server unready; a server embedded without a recovery phase should
// call this right after New.)
func (s *Server) SetReady() { s.ready.Store(true) }

// ApplyDeltas folds accumulated ingest deltas into the currently served
// snapshot (profilestore.Rebuild, copy-on-write) and installs the
// result. It is the ingest.InstallFunc the compactor drives. The
// weighting is ignored: every weighting is a request's, and a snapshot
// serves them all. It stays in the signature only for the benchmark's
// callers (ROADMAP item 1).
func (s *Server) ApplyDeltas(deltas []profilestore.TagDelta, newRecords int, _ tagviews.Weighting) error {
	return s.install(func(cur *profilestore.Snapshot) (*profilestore.Snapshot, error) {
		return profilestore.Rebuild(cur, deltas, newRecords)
	})
}

// install is the one snapshot-install path, an ingest fold's and a slice
// transfer's: under s.mu it derives the next snapshot from the serving
// one and swaps it in, so two installs cannot interleave and lose either
// update. Every reader, /v1/preload included, loads the serving snapshot
// lock-free per request.
func (s *Server) install(next func(*profilestore.Snapshot) (*profilestore.Snapshot, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, err := next(s.store.Load())
	if err != nil {
		return err
	}
	_, err = s.store.Swap(snap)
	return err
}

// Metrics returns the server's counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Traces returns the tail-sampled trace ring — the daemon wires its
// SIGQUIT flight recorder and panic hook over it.
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// SetPanicHook forwards to the middleware's flight-recorder hook.
func (s *Server) SetPanicHook(f func()) { s.mw.SetPanicHook(f) }

// Handler returns the fully middleware-wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// world returns the current snapshot's country table.
func (s *Server) world() *geo.World { return s.store.Load().World() }

// Run serves on addr until ctx is canceled, then shuts down gracefully,
// draining in-flight requests for up to grace.
func (s *Server) Run(ctx context.Context, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, grace)
}

// Serve is Run over a caller-supplied listener — the race-free way to
// serve an ephemeral port (listen on ":0", read the address, Serve).
// It owns the listener and closes it on shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	return ServeHandler(ctx, ln, s.handler, grace, s.DrainStreams)
}

// ServeHandler runs any handler on ln until ctx is canceled, then shuts
// down gracefully, draining in-flight requests for up to grace. It is
// the one serve-lifecycle implementation the daemon and the cluster
// gateway share. It owns the listener and closes it on shutdown.
// drain ends what http.Server.Shutdown cannot see — each side's
// data-plane streams — inside the same grace period, after the HTTP
// requests have drained; nil when there is nothing of the kind.
func ServeHandler(ctx context.Context, ln net.Listener, handler http.Handler, grace time.Duration, drain func(context.Context)) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	if drain != nil {
		drain(shutCtx)
	}
	if err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after a clean Shutdown
	return nil
}
