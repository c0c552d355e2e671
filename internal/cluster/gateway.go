// Package cluster is the tag-partitioned multi-node serving tier: N
// shard daemons (cmd/serve -shard i/n) each hold the slice of the tag
// vocabulary a shared consistent-hash ring (internal/ring) assigns them,
// and a gateway (cmd/gateway) fetches each asked tag's row from the
// shard that holds it and combines the rows into the final per-country
// predictions, routes ingest events to the shards that own their tags,
// and sheds load for shards it observes down.
//
// The split keeps placement policy at the edge — the gateway owns
// request semantics, merging and backpressure — while each shard runs
// the unmodified single-node substrate (profilestore snapshot, ingest
// accumulator, compactor) over a smaller vocabulary. Partitioning is by
// tag identity (the same key the profile stores intern), so a tag's
// whole profile — vector, view totals, document frequency — lives on
// exactly one shard, and the gateway weights the rows by the node's rule
// and adds them with the node's kernel, profilestore.Mix: its answer is
// a single node's, byte for byte.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// GatewayRoutes returns the gateway's route table (server.Route), in
// registration order, mounted on the node's chain with the same policy
// columns: the public contract's rows (server.EdgeRoutes, the node's own
// handlers over this gateway as their backend), then the gateway's
// surfaces. Placement and preload stay shard-local: they need a catalog
// the gateway does not hold. Documentation tests hold it against API.md,
// exactly like server.Routes. (A function, not a package variable: a
// variable built by a call is initialised in every binary that imports
// the package, which would link the whole gateway into cmd/serve.)
func GatewayRoutes() []server.Route[*Gateway] {
	return append(server.EdgeRoutes(func(g *Gateway) *server.Edge { return g.edge }), []server.Route[*Gateway]{
		{Path: "/v1/stats", Method: "GET", Group: server.GroupOther, Policy: server.Probe, Handler: (*Gateway).handleStats},
		{Path: "/v1/reshard", Method: "POST", Group: server.GroupOther, Handler: (*Gateway).handleReshard},
		{Path: "/healthz", Method: "GET", Group: server.GroupOther, Policy: server.Probe, Handler: (*Gateway).handleHealth},
		{Path: "/readyz", Method: "GET", Group: server.GroupOther, Policy: server.Probe, Handler: (*Gateway).handleReady},
		{Path: "/metrics", Method: "GET", Group: server.GroupOther, Policy: server.Probe, Handler: (*Gateway).handleMetrics},
	}...)
}

// GatewayConfig parameterizes the gateway.
type GatewayConfig struct {
	// Common holds what a node takes too. With Replicas >= 2 the gateway
	// fails reads over to a surviving replica instead of shedding, routes
	// writes to every replica of the owning slice, and re-syncs a revived
	// replica from its peers before reading from it.
	server.Common
	// HealthInterval is the background shard-poll cadence (default 1s).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive shard-call failures mark a
	// shard down (default 3). A down shard is shed from, not called: the
	// gateway answers 503 immediately instead of stacking timeouts.
	FailThreshold int
	// ShardTimeout bounds each scatter call, and the dial of a shard's
	// data-plane stream (default 5s).
	ShardTimeout time.Duration
	// Transport, when non-nil, replaces the shard HTTP transport
	// entirely (connection-counting tests, custom TLS). Control-plane
	// calls round-trip through it, and each shard's data-plane stream
	// is dialled through it as an HTTP Upgrade.
	Transport http.RoundTripper
}

// DefaultGatewayConfig returns the standard gateway configuration.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		Common:         server.DefaultConfig().Common,
		HealthInterval: time.Second,
		FailThreshold:  3,
		ShardTimeout:   5 * time.Second,
	}
}

// Data-plane routes, as indexes into shardState.legs and as the route
// label of viewstags_shard_leg_duration_seconds. A refresh leg is a
// predict frame of up to MaxBatch rows no request waits on, timed apart.
const (
	legPredict = iota
	legIngest
	legRefresh
	numLegRoutes
)

var legRouteNames = [numLegRoutes]string{"predict", "ingest", "refresh"}
var legRoutePaths = [numLegRoutes]string{server.InternalPredictPath, server.InternalIngestPath, server.InternalPredictPath}

// Why a shard's cached rows stopped being usable, as indexes into
// shardState.invalidations; RowInvalidations names each on both
// telemetry surfaces.
const (
	invalEpoch   = iota // the tracked fold epoch advanced
	invalDown           // marked down
	invalRevived        // back up, possibly at an earlier epoch
	invalCatchup        // rebuilt from its peers
	numInvalCauses
)

// shardState is the gateway's live view of one shard, updated by every
// scatter call and by the background health poll. Every field the
// serving path reads is an atomic, so it reads them lock-free.
type shardState struct {
	epoch   atomic.Uint64
	records atomic.Int64
	fails   atomic.Int64 // consecutive failures
	down    atomic.Bool
	// syncing marks a revived replica that has not yet been rebuilt
	// from its peers: it missed every write delivered while it was
	// down, so it stays out of READ rotation (serving from it would
	// time-travel the tags it holds) while writes flow to it again.
	// The gateway's catch-up transfer clears it. Only ever set when
	// the tier is replicated — at R=1 there is no peer to rebuild
	// from, and revival keeps its historical semantics.
	syncing atomic.Bool
	// gen is the slot's generation: it advances whenever the shard's
	// content can change without its epoch saying so — at mark-down, at
	// revival (a restarted shard may reuse epoch numbers for different
	// content, and revival is the one place the tracked epoch moves
	// backward) and when catch-up finishes (the import installs without a
	// fold). A cached row is usable only under the generation its fetch
	// began in; see usable in fanout.go.
	gen atomic.Uint32
	// invalidations counts, by cause, the moments every row cached from
	// this shard went stale at once.
	invalidations [numInvalCauses]atomic.Int64
	// legs are the per-route leg latencies postShard observes: the
	// in-program per-shard number behind a slow fan-out.
	legs [numLegRoutes]obs.Histogram
	// refreshing (under Gateway.refreshMu): a refresh pass is running for
	// the slot. refreshLegs counts the frames passes have sent the shard.
	refreshing  bool
	refreshLegs atomic.Int64
}

// invalidate advances the slot generation, which strands every row
// cached from the shard, and counts why.
func (s *shardState) invalidate(cause int) {
	s.gen.Add(1)
	s.invalidations[cause].Add(1)
}

// topology is the gateway's immutable view of the shard tier at one
// instant: the targets, the ring partitioning them, the per-shard
// health state and data-plane stream, and the per-tag rows cached from
// those shards under that ring (rows; a reshard's fresh topology starts
// with none). Serving paths load it once per request through an atomic
// pointer; a live reshard installs a fresh topology at cutover, so a
// request never observes half a swap.
type topology struct {
	ring    *ring.Ring
	targets []string
	shards  []*shardState
	streams []*shardStream
	rows    *rowCache
}

// excludedShards appends the indexes currently out of read rotation —
// down or re-syncing — to dst and returns it.
func (tp *topology) excludedShards(dst []int) []int {
	for i, s := range tp.shards {
		if s.down.Load() || s.syncing.Load() {
			dst = append(dst, i)
		}
	}
	return dst
}

// Gateway is the cluster edge: the node's public contract (server.Edge)
// over a backend that owns the predict arithmetic — combining the per-tag
// partial rows it fetches from the shard tier and keeps — and splits
// writes by ring owner. Construct with NewGateway, then Sync before
// serving; StartHealth keeps its view of the shards current.
type Gateway struct {
	cfg GatewayConfig
	// client carries the control plane (meta probes, /v1/tags, transfers,
	// trace stitching) as plain HTTP; the data plane rides the per-shard
	// streams in topology, dialled through the same Transport.
	client  *http.Client
	metrics *server.Metrics
	logger  *log.Logger
	handler http.Handler
	mw      *server.Middleware
	// edge is the public contract over this gateway as its Backend.
	edge *server.Edge
	// topo is the current shard-tier view; see type topology.
	topo atomic.Pointer[topology]
	// traces is the gateway's own tail-sampled span ring; the
	// /debug/traces family serves it and stitches shard-side views on.
	traces *obs.TraceStore

	// gate is the request barrier a reshard cutover closes: every
	// client-facing data handler holds it shared for its full duration,
	// and Reshard takes it exclusively across transfer+adopt+cutover so
	// no in-flight request — and so no fan-out, which only ever runs
	// inside its handler — straddles two topologies.
	gate sync.RWMutex
	// writeGate additionally covers the write path only (taken after
	// gate): moveSlices holds it exclusively across its copies so the
	// fold-then-replace merge is an exact dedup, while catch-up's reads
	// keep flowing (they exclude the syncing replicas anyway).
	writeGate sync.RWMutex
	// opMu serializes the topology operations themselves (reshard,
	// catch-up).
	opMu sync.Mutex

	// failovers counts shards a predict dropped mid-request, their tags
	// asked of the surviving replicas (viewstags_replica_failover_total).
	failovers atomic.Int64
	// rowHits / rowMisses count tag positions a predict resolved from the
	// row cache at first look, or had to fetch; predictLegs counts the
	// shard frames those fetches cost. Legs per predict request is the
	// number the row cache exists to move.
	rowHits     atomic.Int64
	rowMisses   atomic.Int64
	predictLegs atomic.Int64
	// The row refresher (rowrefresh.go): refreshMu guards the slots'
	// refreshing marks and the count of passes running (refreshIdle signals
	// each end); none starts once closed. Then its two row counters.
	refreshMu      sync.Mutex
	refreshIdle    *sync.Cond
	refreshes      int
	closed         atomic.Bool
	refreshedRows  atomic.Int64
	refreshDropped atomic.Int64
	// handoff is the last reshard's observable record; nil before the
	// first one.
	handoff atomic.Pointer[HandoffStatus]
	// stopHealth cancels the health loop StartHealth began and waits for
	// its last pass; nil until then.
	stopHealth func()

	// Global (unpartitioned) state learned from the shards at Sync:
	// the country table (codes, and indexed in countries) and the
	// traffic prior, identical on every shard by construction.
	codes     []string
	countries *server.Countries
	prior     []float64

	// mergedPool and partialsPool recycle the predict path's larger
	// scratch state: result slabs with their resolve scratch, and the
	// binary reply decoders.
	mergedPool   sync.Pool
	partialsPool sync.Pool
}

// NewGateway wires a gateway over the shard target base URLs, in shard
// order: targets[i] must be the daemon started with -shard i/len. Call
// Sync before serving traffic.
func NewGateway(cfg GatewayConfig, targets []string) (*Gateway, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one shard target")
	}
	def := DefaultGatewayConfig()
	cfg.Common = cfg.Common.WithDefaults()
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = def.HealthInterval
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = def.FailThreshold
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = def.ShardTimeout
	}
	rg, err := ring.New(len(targets), cfg.Replicas)
	if err != nil {
		return nil, err
	}
	transport := cfg.Transport
	if transport == nil {
		// The data plane needs one connection per shard and the control
		// plane a handful of probes a second: net/http's defaults do.
		transport = &http.Transport{}
	}
	g := &Gateway{
		cfg:       cfg,
		metrics:   server.NewMetrics(),
		logger:    cfg.Logger,
		countries: server.NewCountries(nil), // until Sync learns the shards'
		client: &http.Client{
			Timeout:   cfg.ShardTimeout,
			Transport: transport,
		},
	}
	tp := &topology{
		ring:    rg,
		targets: append([]string(nil), targets...),
		shards:  make([]*shardState, len(targets)),
		streams: make([]*shardStream, len(targets)),
		rows:    newRowCache(),
	}
	for i := range tp.shards {
		tp.shards[i] = &shardState{}
		tp.streams[i] = g.newStream(targets[i])
	}
	g.topo.Store(tp)
	g.refreshIdle = sync.NewCond(&g.refreshMu)
	g.mergedPool.New = func() any { return new(mergedPredict) }
	g.partialsPool.New = func() any { return new(server.PredictPartials) }
	mw := server.NewMiddleware(cfg.MaxInFlight, g.metrics, cfg.Logger, cfg.LogRequests)
	g.traces = obs.NewTraceStore(0)
	mw.SetTraceStore(g.traces)
	g.mw = mw
	g.edge = server.NewEdge(g, cfg.MaxBatch, g.metrics, g.traces)
	g.handler = server.Mount(mw, g, GatewayRoutes())
	return g, nil
}

// newStream builds the (not yet dialled) data-plane stream to one shard
// target.
func (g *Gateway) newStream(target string) *shardStream {
	return &shardStream{target: target, rt: g.client.Transport, timeout: g.cfg.ShardTimeout}
}

// Close stops the health loop and waits for its last pass, then ends
// every shard stream — calls in flight fail with a transport error,
// which also ends the row refresh passes it then waits for — and drops
// the control plane's idle connections. Run calls it after the drain; a
// gateway used through Handler() alone should be closed by its owner.
func (g *Gateway) Close() {
	g.closed.Store(true)
	if g.stopHealth != nil {
		g.stopHealth()
	}
	for _, s := range g.topo.Load().streams {
		s.close()
	}
	g.WaitRowRefresh()
	g.client.CloseIdleConnections()
}

// Traces returns the gateway's tail-sampled trace ring — the flight
// recorder dumps it, tests inspect it.
func (g *Gateway) Traces() *obs.TraceStore { return g.traces }

// SetPanicHook installs the flight-recorder callback the middleware
// fires after a handler panic. Call before serving traffic.
func (g *Gateway) SetPanicHook(f func()) { g.mw.SetPanicHook(f) }

// Sync reads every shard's /internal/meta and pins the cluster contract
// by admit, the rule every health poll applies too. A gateway's first
// Sync learns the country table and traffic prior (the globals partial
// predictions are merged with) from its first shard. Returns the first
// violation — a gateway must not serve over a topology it cannot prove
// consistent.
func (g *Gateway) Sync(ctx context.Context) error {
	tp := g.topo.Load()
	codes, prior := g.codes, g.prior
	for i, target := range tp.targets {
		var meta server.InternalMetaResponse
		err := g.get(ctx, target+server.InternalMetaPath).decode(&meta)
		if err == nil {
			if codes == nil {
				codes, prior = meta.Countries, meta.Prior
			}
			err = admit(tp, i, &meta, codes, prior)
		}
		if err != nil {
			return fmt.Errorf("cluster: shard %d (%s): %w", i, target, err)
		}
		tp.shards[i].epoch.Store(meta.Epoch)
		tp.shards[i].records.Store(int64(meta.Records))
	}
	if len(codes) == 0 {
		return fmt.Errorf("cluster: shards report an empty country table")
	}
	if g.codes == nil {
		g.codes, g.countries, g.prior = codes, server.NewCountries(codes), prior
	}
	return nil
}

// admit is the one rule a shard's /internal/meta must pass to serve as
// shard i of tp: its identity — index, shard count, replica factor and
// ring signature — then admitData.
func admit(tp *topology, i int, meta *server.InternalMetaResponse, codes []string, prior []float64) error {
	replicas := max(meta.Replicas, 1)
	switch {
	case meta.Index != i || meta.Shards != len(tp.targets):
		return fmt.Errorf("identifies as shard %d of %d, want %d of %d", meta.Index, meta.Shards, i, len(tp.targets))
	case replicas != tp.ring.Replicas():
		return fmt.Errorf("places %d replicas, gateway places %d", replicas, tp.ring.Replicas())
	case meta.RingSignature != tp.ring.Signature():
		return fmt.Errorf("ring signature %q, gateway has %q — partitioned with a different ring", meta.RingSignature, tp.ring.Signature())
	}
	return admitData(meta, codes, prior)
}

// admitData is admit's readiness-and-dataset half, all Reshard's
// pre-flight applies: a target keeps its old identity until it adopts.
func admitData(meta *server.InternalMetaResponse, codes []string, prior []float64) error {
	if !meta.Ready {
		return errors.New("not ready yet (recovery in progress)")
	}
	if !slices.Equal(codes, meta.Countries) || !slices.Equal(prior, meta.Prior) {
		return errors.New("disagrees on the country table or prior — different dataset?")
	}
	return nil
}

// SyncRetry runs Sync with jittered exponential backoff until it
// succeeds, wait elapses, or ctx ends — the startup loop
// node.StartGateway runs so a gateway can be launched before (or while)
// its shards come up. The jitter matters at fleet scale: after a
// cluster-wide restart, fixed-interval retries from every gateway land
// on the shards in synchronized waves.
func (g *Gateway) SyncRetry(ctx context.Context, wait time.Duration) error {
	bo := &syncBackoff{}
	deadline := time.Now().Add(wait)
	for {
		err := g.Sync(ctx)
		if err == nil {
			return nil
		}
		d := bo.Next()
		if time.Now().Add(d).After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("shard sync: %w", err)
		}
		g.logger.Printf("cluster: sync not ready (%v), retrying in %s...", err, d.Round(time.Millisecond))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}

// Handler returns the fully middleware-wrapped HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Metrics returns the gateway's counters.
func (g *Gateway) Metrics() *server.Metrics { return g.metrics }

// Run serves on addr until ctx is canceled, then shuts down gracefully:
// in-flight requests drain for up to grace, then Close. It polls nothing
// itself: shard health is StartHealth's, for the gateway's whole life.
func (g *Gateway) Run(ctx context.Context, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	g.logger.Printf("gateway: serving on http://%s (^C to drain)", addr)
	return server.ServeHandler(ctx, ln, g.handler, grace, func(context.Context) { g.Close() })
}

// StartHealth starts the health loop: roughly every HealthInterval it
// refreshes shard state and then, if a revived replica is waiting on one,
// runs replica catch-up, until Close, skipping reshard handoffs. The
// interval is jittered ±20% so a fleet of gateways does not probe the
// shard tier in lockstep. Call it once, after Sync and before serving.
func (g *Gateway) StartHealth() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := &tickJitter{interval: g.cfg.HealthInterval}
		timer := time.NewTimer(tick.Next())
		defer timer.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
				// Not mid-reshard: adopt gives carried-over shards the identity
				// only the cutover's topology admits; Reshard polls after it.
				if h := g.handoff.Load(); h == nil || !h.Active {
					g.RefreshHealth(ctx)
					g.maybeCatchUp(ctx)
				}
				timer.Reset(tick.Next())
			}
		}
	}()
	g.stopHealth = func() { cancel(); <-done }
}

// RefreshHealth polls every shard's /internal/meta once, concurrently,
// and judges each answer by Sync's rule, admit. An admitted shard's epoch
// and record count are recorded, and a down one revives. Any other poll
// counts toward FailThreshold like a failed shard call, and one the shard
// answered is logged with its reason: a shard still recovering would
// serve from a half-replayed journal, and one that identifies as another
// shard or over another dataset, from a slice it does not hold. The
// health loop (StartHealth) calls it every HealthInterval; it is exported
// so tests and embedders can poll at an instant of their choosing.
func (g *Gateway) RefreshHealth(ctx context.Context) {
	tp := g.topo.Load()
	for i, rep := range fanOut(g, ctx, tp, gets{path: server.InternalMetaPath}) {
		if rep.err != nil {
			continue // getShard counted it
		}
		var meta server.InternalMetaResponse
		err := rep.decode(&meta)
		if err == nil {
			err = admit(tp, i, &meta, g.codes, g.prior)
		}
		if err != nil {
			g.logger.Printf("cluster: shard %d (%s) refused: %v", i, tp.targets[i], err)
			g.markFail(tp, i, err)
			continue
		}
		tp.shards[i].records.Store(int64(meta.Records))
		g.markOK(tp, i, meta.Epoch)
	}
}

// markOK records a successful shard interaction and its observed epoch.
func (g *Gateway) markOK(tp *topology, i int, epoch uint64) {
	s := tp.shards[i]
	s.fails.Store(0)
	if s.down.CompareAndSwap(true, false) {
		s.invalidate(invalRevived)
		// Revival is the one moment the tracked epoch may move BACKWARD:
		// a shard that crashed and recovered from its last checkpoint
		// legitimately rejoins at the epoch it restored, which can trail
		// what it reported before the crash. Pinning the old value would
		// overstate the cluster's min-epoch fold horizon — telling
		// clients their ingested events were folded everywhere when the
		// recovered shard hasn't folded them yet.
		s.epoch.Store(epoch)
		if tp.ring.Replicas() > 1 {
			// With replicas the revived shard additionally missed every
			// write its peers took while it was down; hold it out of read
			// rotation until catch-up has replayed its slice from a
			// surviving replica. At R=1 there is no peer to replay from —
			// the checkpoint it restored IS the best available state.
			s.syncing.Store(true)
			g.logger.Printf("cluster: shard %d (%s) back up at epoch %d, syncing from peers", i, tp.targets[i], epoch)
			return
		}
		g.logger.Printf("cluster: shard %d (%s) back up at epoch %d", i, tp.targets[i], epoch)
		return
	}
	// Steady state: epochs only move forward; a stale concurrent read
	// must not regress the tracked value. A forward move is what retires
	// the shard's cached rows: requests that start from here on hold the
	// new epoch, and rows labelled with the old one no longer match it.
	for {
		cur := s.epoch.Load()
		if epoch <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, epoch) {
			s.invalidations[invalEpoch].Add(1)
			g.startRefresh(tp, i)
			return
		}
	}
}

// markFail counts a failed shard interaction and its reason;
// FailThreshold consecutive failures take the shard out of rotation until
// a call or probe succeeds, logged with the last one's reason.
func (g *Gateway) markFail(tp *topology, i int, reason error) {
	s := tp.shards[i]
	if s.fails.Add(1) >= int64(g.cfg.FailThreshold) {
		if s.down.CompareAndSwap(false, true) {
			s.invalidate(invalDown)
			g.logger.Printf("cluster: shard %d (%s) marked down after %d consecutive failures (last: %v)",
				i, tp.targets[i], g.cfg.FailThreshold, reason)
			// Whatever is left of its stream may be half-open; a revived
			// shard is reached over a fresh connection.
			tp.streams[i].reset()
		}
	}
}

// minEpoch returns the lowest epoch any shard has reported — the
// cluster's conservative fold horizon: an ingested batch is predictable
// everywhere once minEpoch passes the epoch in its ack.
func (tp *topology) minEpoch() uint64 {
	min := tp.shards[0].epoch.Load()
	for _, s := range tp.shards[1:] {
		if e := s.epoch.Load(); e < min {
			min = e
		}
	}
	return min
}
