package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"viewstags/internal/bincodec"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/server"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// shardReply is one shard's answer to a scatter call: the decoded-later
// body plus the transport-level facts the gather step branches on.
// start and dur time the whole leg (envelope write + shard handler +
// reply read) for the per-shard trace spans.
type shardReply struct {
	shard      int
	status     int
	retryAfter string
	body       []byte
	err        error
	start      time.Time
	dur        time.Duration
}

// postShard runs one data-plane call against a shard over its stream,
// feeding the health tracker and the per-shard leg histogram (answered
// legs only: a leg that was cancelled, refused at the dial, cut or timed
// out has no latency to report, and a dead shard's instant failures
// would drag its quantiles toward zero). Non-2xx statuses are returned
// for the caller to map — they are protocol answers (shed, malformed),
// not transport failures, so they do not count toward marking the shard
// down. trace, when non-empty, rides the envelope as the request id so
// the shard's access log carries the same id the client saw — the wire
// frames themselves never change. route (legPredict, legIngest,
// legRefresh) names the shard path and the histogram the leg lands in.
func (g *Gateway) postShard(ctx context.Context, tp *topology, shard, route int, body []byte, contentType, trace string) shardReply {
	start := time.Now()
	status, retryAfter, raw, err := tp.streams[shard].call(ctx, legRoutePaths[route], contentType, trace, body)
	dur := time.Since(start)
	if err != nil {
		// A canceled client context aborts every in-flight shard call;
		// that says nothing about shard health, so it must not count
		// toward down-marking (a handful of impatient clients would
		// otherwise shed the whole cluster).
		if ctx.Err() == nil {
			g.markFail(tp, shard)
		}
		return shardReply{shard: shard, err: err, start: start, dur: dur}
	}
	tp.shards[shard].legs[route].Observe(dur)
	return shardReply{
		shard:      shard,
		status:     status,
		retryAfter: retryAfter,
		body:       raw,
		start:      start,
		dur:        dur,
	}
}

// scatter posts one body per involved shard concurrently and gathers
// the replies. bodies[i] == nil skips shard i. trace is propagated to
// every involved shard. The last involved shard's call runs on the
// caller's goroutine, so the common one-shard scatter — a predict
// missing a row or two, an ingest without an upload — spawns nothing.
func (g *Gateway) scatter(ctx context.Context, tp *topology, route int, bodies [][]byte, contentType, trace string) []shardReply {
	replies := make([]shardReply, len(bodies))
	last := -1
	for i, body := range bodies {
		if body != nil {
			last = i
		}
	}
	var wg sync.WaitGroup
	for i, body := range bodies {
		switch {
		case body == nil:
			replies[i] = shardReply{shard: i, status: -1}
		case i == last:
			replies[i] = g.postShard(ctx, tp, i, route, body, contentType, trace)
		default:
			wg.Add(1)
			go func(i int, body []byte) {
				defer wg.Done()
				replies[i] = g.postShard(ctx, tp, i, route, body, contentType, trace)
			}(i, body)
		}
	}
	wg.Wait()
	return replies
}

// shedIfDown is the 503 for a request that needs a shard marked down —
// the health-based shedding path: a request that must touch a dead shard
// is refused immediately instead of stacking connect timeouts onto every
// client. needed == nil means "all shards"; nil when none is down.
func (g *Gateway) shedIfDown(tp *topology, needed []bool) *server.ErrorReply {
	if i := tp.downShard(needed); i >= 0 {
		return g.unavailable("shard %d (%s) is down", i, tp.targets[i])
	}
	return nil
}

// The gateway is the public contract's scattering backend (server.Edge):
// the contract decodes, checks and encodes; these fetch and merge.

// Countries is the Backend's country table, learned from the shards at
// Sync.
func (g *Gateway) Countries() *server.Countries { return g.countries }

// Predict is the Backend's predict: predictFanout over the row cache and
// the shards, under the request barrier — which covers the fan-out, not
// the client's body: a reshard cutover waits for the legs in flight, not
// for a slow upload.
func (g *Gateway) Predict(r *http.Request, items [][]string, w tagviews.Weighting, out *server.Predictions) *server.ErrorReply {
	g.gate.RLock()
	defer g.gate.RUnlock()
	m, fe := g.predictFanout(r.Context(), items, w, server.RequestID(r), out)
	if fe != nil {
		return fe
	}
	addFanoutSpans(server.TraceFrom(r), m)
	g.putMerged(m)
	return nil
}

// gatherAck maps one shard reply onto the client response through the
// same replyErr mapping the predict fan-out uses, so a shard dying
// mid-ingest sheds exactly like one dying mid-predict (503 +
// Retry-After); shard 400s surface as 502 (the contract validates with
// the shard's own validator, so these indicate a version skew worth
// surfacing, not hiding). On nil, out holds the decoded ack.
func (g *Gateway) gatherAck(tp *topology, rep shardReply, out *server.IngestResponse) *server.ErrorReply {
	if fe := g.replyErr(tp, rep); fe != nil {
		return fe
	}
	if err := server.DecodeIngestAck(rep.body, out); err != nil {
		g.markFail(tp, rep.shard)
		return &server.ErrorReply{Status: http.StatusBadGateway, Msg: fmt.Sprintf("shard %d: undecodable response: %v", rep.shard, err)}
	}
	return nil
}

// errText extracts the error envelope's message for propagation.
func errText(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(body))
}

// shardBatch is one shard's share of an ingest batch: its events, with
// tag lists cut to the tags it owns, and the bare upload announcements
// for uploads whose tags it owns none of.
type shardBatch struct {
	events  []ingest.Event
	uploads []string
}

// Ingest is the Backend's ingest: each event's tags split by ring owner
// and scattered as one /internal/ingest body per shard involved, in the
// encoding a WAL record carries (ingest.AppendBatch). The batch is
// already validated whole, with the shards' own validator; country ids
// cross the leg as they are, because Sync and Reshard admit only shards
// whose country table is the gateway's.
func (g *Gateway) Ingest(r *http.Request, events []ingest.Event) (server.IngestResponse, *server.ErrorReply) {
	// Both barriers: the reshard cutover holds gate exclusively, and
	// every slice copy (moveSlices) holds writeGate exclusively across
	// its export+import pairs — a write landing mid-copy on the exporting
	// side would be missed by the importer yet already folded by the
	// exporter, breaking the exact-dedup merge.
	g.gate.RLock()
	defer g.gate.RUnlock()
	g.writeGate.RLock()
	defer g.writeGate.RUnlock()

	// Partition: each event's tags split by ring owner — every live
	// owner when the tier is replicated — and an upload is announced to
	// every shard — as the Upload flag on the sub-event where the shard
	// owns tags, as a bare video-id announcement where it owns none —
	// because the training-corpus size is global and every shard must
	// count every new upload.
	//
	// With replicas the write path is sloppy, not quorum: a down shard
	// is simply skipped (it rebuilds from its peers at catch-up, which
	// also re-converges the global upload count via the max-fold), and
	// the request sheds only when some tag's entire replica set is
	// down. A syncing replica still takes writes — it is only out of
	// READ rotation.
	tp := g.topo.Load()
	replicas := tp.ring.Replicas()
	perShard := make([]shardBatch, len(tp.targets))
	tagsByShard := make([][]string, len(tp.targets))
	var ownerBuf []int
	for i := range events {
		e := &events[i]
		for s := range tagsByShard {
			tagsByShard[s] = tagsByShard[s][:0]
		}
		if replicas <= 1 {
			for _, tag := range e.Tags {
				s := tp.ring.Owner(tag)
				tagsByShard[s] = append(tagsByShard[s], tag)
			}
		} else {
			for _, tag := range e.Tags {
				ownerBuf = tp.ring.Owners(tag, ownerBuf[:0])
				live := 0
				for _, s := range ownerBuf {
					if tp.shards[s].down.Load() {
						continue
					}
					live++
					tagsByShard[s] = append(tagsByShard[s], tag)
				}
				if live == 0 {
					return server.IngestResponse{}, g.unavailable("event %d: every replica of tag %q's slice is down", i, tag)
				}
			}
		}
		for s := range perShard {
			if replicas > 1 && tp.shards[s].down.Load() {
				continue
			}
			if len(tagsByShard[s]) > 0 {
				perShard[s].events = append(perShard[s].events, ingest.Event{
					Video:   e.Video,
					Tags:    append([]string(nil), tagsByShard[s]...),
					Country: e.Country,
					Views:   e.Views,
					Upload:  e.Upload,
				})
			} else if e.Upload {
				perShard[s].uploads = append(perShard[s].uploads, e.Video)
			}
		}
	}

	needed := make([]bool, len(tp.targets))
	bodies := make([][]byte, len(tp.targets))
	for s, b := range perShard {
		if len(b.events) == 0 && len(b.uploads) == 0 {
			continue
		}
		needed[s] = true
		var body bincodec.Writer
		ingest.AppendBatch(&body, b.events, b.uploads)
		bodies[s] = body.B
	}
	if replicas <= 1 {
		if fe := g.shedIfDown(tp, needed); fe != nil {
			return server.IngestResponse{}, fe
		}
	}

	// Gather. The sub-batches commit independently on their shards, so
	// a mixed outcome (one shard accepted, another shed) leaves a
	// partial application behind — the gateway reports the failure and
	// relies on per-epoch upload dedup plus client retry to converge
	// (under replication the same wart surfaces as replica divergence,
	// repaired by the next down→catch-up cycle); see OPERATIONS.md
	// "Cluster topology" for the contract.
	acks := make([]server.IngestResponse, len(tp.targets))
	fanStart := time.Now()
	replies := g.scatter(r.Context(), tp, legIngest, bodies, server.IngestContentType, server.RequestID(r))
	server.TraceFrom(r).Add("fanout", obs.NoShard, fanStart, time.Since(fanStart), "")
	var pending int64
	for _, rep := range replies {
		if rep.status == -1 {
			continue // shard not involved: no reply, no health signal
		}
		if fe := g.gatherAck(tp, rep, &acks[rep.shard]); fe != nil {
			return server.IngestResponse{}, fe
		}
		g.markOK(tp, rep.shard, acks[rep.shard].Epoch)
		pending += acks[rep.shard].Pending
	}
	return server.IngestResponse{Accepted: len(events), Epoch: tp.minEpoch(), Pending: pending}, nil
}

// TopTags is the Backend's top-k: tags are partitioned, so each shard's
// top-k is globally correct for the tags it owns and the global top-k is
// a k-way merge of the per-shard lists (replicas contribute duplicates,
// dropped below).
func (g *Gateway) TopTags(r *http.Request, k int) ([]server.TagInfo, *server.ErrorReply) {
	g.gate.RLock()
	defer g.gate.RUnlock()
	tp := g.topo.Load()
	replicas := tp.ring.Replicas()
	var skip []bool
	if replicas > 1 {
		// Replicated: query only shards in read rotation, as long as
		// every slice keeps a live replica — a replica pair holds the
		// same tags, so the survivors still cover the full vocabulary.
		excl := tp.excludedShards(nil)
		if len(excl) > 0 {
			if !tp.ring.Covered(excl) {
				return nil, g.coverageLost(tp, excl)
			}
			skip = make([]bool, len(tp.targets))
			for _, s := range excl {
				skip[s] = true
			}
		}
	} else if fe := g.shedIfDown(tp, nil); fe != nil {
		return nil, fe
	}
	// Sized by what the shards return, never by the client's k (a shard
	// clamps k to its vocabulary; the gateway has none to clamp to).
	merged := []server.TagInfo{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errc := make(chan error, len(tp.targets))
	for i := range tp.targets {
		if skip != nil && skip[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply server.TagsResponse
			url := fmt.Sprintf("%s/v1/tags?k=%d", tp.targets[i], k)
			if err := g.getJSON(r.Context(), url, &reply); err != nil {
				// Only transport failures are health signals; a non-200
				// (e.g. the shard's limiter shedding /v1/tags) proves
				// the shard is up, and a canceled client context proves
				// nothing at all.
				var se *statusError
				if !errors.As(err, &se) && r.Context().Err() == nil {
					g.markFail(tp, i)
				}
				errc <- fmt.Errorf("shard %d: %w", i, err)
				return
			}
			mu.Lock()
			merged = append(merged, reply.Tags...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errc:
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusServiceUnavailable {
			return nil, &server.ErrorReply{Status: http.StatusServiceUnavailable, Msg: err.Error(), RetryAfter: server.RetryAfterSecs(0)}
		}
		return nil, &server.ErrorReply{Status: http.StatusBadGateway, Msg: err.Error()}
	default:
	}
	if replicas > 1 {
		// Every tag appears on R shards; keep one entry per name. The
		// copies can momentarily disagree (a replica that missed a
		// mid-flight write, or lagging folds), so keep the
		// highest-views copy — the one that has seen the most.
		byName := make(map[string]int, len(merged))
		dedup := merged[:0]
		for _, t := range merged {
			if j, ok := byName[t.Name]; ok {
				if t.TotalViews > dedup[j].TotalViews {
					dedup[j] = t
				}
				continue
			}
			byName[t.Name] = len(dedup)
			dedup = append(dedup, t)
		}
		merged = dedup
	}
	top := synth.TopTags(len(merged), k,
		func(i int) float64 { return merged[i].TotalViews },
		func(i int) string { return merged[i].Name })
	out := make([]server.TagInfo, len(top))
	for j, i := range top {
		out[j] = merged[i]
	}
	return out, nil
}

// ShardStatus is one shard's entry in the gateway's /v1/stats and
// /healthz cluster blocks, and its shard-labelled series on /metrics.
// Syncing marks a revived replica still rebuilding from its peers:
// taking writes, out of read rotation. EpochLag is measured against the
// highest epoch any shard reports: the alert signal for one shard falling
// behind on folds (the absolute epoch alone cannot say who is stale).
type ShardStatus struct {
	Index            int              `json:"index"`
	Target           string           `json:"target"`
	Epoch            uint64           `json:"epoch" prom:"viewstags_shard_epoch,gauge" help:"Last fold epoch the shard reported."`
	EpochLag         uint64           `json:"epoch_lag" prom:"viewstags_shard_epoch_lag,gauge" help:"Folds the shard trails the most advanced shard by."`
	Records          int64            `json:"records" prom:"viewstags_shard_records,gauge" help:"Training records the shard reported at its last poll."`
	Healthy          bool             `json:"healthy" prom:"viewstags_shard_up,gauge" help:"1 when the shard is in rotation, 0 when marked down."`
	Syncing          bool             `json:"syncing" prom:"viewstags_shard_syncing,gauge" help:"1 while a revived replica rebuilds from its peers (writes yes, reads no)."`
	StreamReconnects int64            `json:"stream_reconnects" prom:"viewstags_shard_stream_reconnects_total,counter" help:"Data-plane stream dials to the shard after the first."`
	RefreshLegs      int64            `json:"refresh_legs" prom:"viewstags_row_cache_refresh_legs_total,counter" help:"Refresh frames sent to the shard."`
	RowInvalidations RowInvalidations `json:"row_invalidations" prom:"viewstags_row_cache_invalidations_total,counter" help:"Times every row cached from the shard went stale at once, by cause: its epoch advanced, it was marked down, it came back, it was rebuilt from its peers."`
}

// RowInvalidations counts, by cause, the times every row cached from one
// shard went stale at once: its tracked epoch advanced, it was marked
// down, it came back up, it was rebuilt from its peers.
type RowInvalidations struct {
	Epoch   int64 `json:"epoch" prom:"cause"`
	Down    int64 `json:"down" prom:"cause"`
	Revived int64 `json:"revived" prom:"cause"`
	Catchup int64 `json:"catchup" prom:"cause"`
}

// RowCacheStats is the predict row cache's view in the /v1/stats
// cluster block. Hits and Misses count tag positions resolved from the
// cache at first look or fetched; Rows is what the current topology's
// cache holds. Refresh*: rows re-read in bulk after observed folds, the
// frames that took (never in PredictLegs; the sum of the shards'
// refresh_legs), rows dropped idle.
type RowCacheStats struct {
	Hits           int64 `json:"hits" prom:"viewstags_row_cache_lookups_total,counter,result=hit" help:"Tag positions a predict resolved from cached rows at first look (hit) or had to fetch (miss)."`
	Misses         int64 `json:"misses" prom:"viewstags_row_cache_lookups_total,counter,result=miss"`
	Rows           int64 `json:"rows" prom:"viewstags_row_cache_rows,gauge" help:"Per-tag partial rows the current topology's cache holds."`
	RefreshRows    int64 `json:"refresh_rows" prom:"viewstags_row_cache_refresh_rows_total,counter" help:"Rows re-read in bulk, off the request path, after the gateway observed their shard's epoch move."`
	RefreshLegs    int64 `json:"refresh_legs"`
	RefreshDropped int64 `json:"refresh_dropped" prom:"viewstags_row_cache_refresh_dropped_total,counter" help:"Rows dropped instead of re-read: nobody had asked for them through the last refreshes."`
}

// ClusterStats is the gateway's cluster-level view: per-shard status
// plus the minimum epoch — the conservative fold horizon clients should
// compare ingest acks against. Replicas reports the placement factor,
// Failovers the shards predicts dropped mid-request, and Handoff the last
// reshard's record (phase "idle" once over; its epoch counts started
// handoffs). RowCache and PredictLegs are the predict path's own
// counters: PredictLegs over the predict route's request count is legs
// per request, the number the row cache moves.
type ClusterStats struct {
	Shards      []ShardStatus  `json:"shards" prom:"shard"`
	Epoch       uint64         `json:"epoch" prom:"viewstags_cluster_min_epoch,gauge" help:"Lowest epoch any shard reports — the conservative fold horizon."`
	Healthy     int            `json:"healthy"`
	Replicas    int            `json:"replicas" prom:"viewstags_cluster_replicas,gauge" help:"Copies of each tag's slice the ring places."`
	Failovers   int64          `json:"failovers" prom:"viewstags_replica_failover_total,counter" help:"Reads re-scattered to surviving replicas after a shard failed mid-fan-out."`
	Handoff     *HandoffStatus `json:"handoff,omitempty"`
	RowCache    RowCacheStats  `json:"row_cache"`
	PredictLegs int64          `json:"predict_legs" prom:"viewstags_predict_legs_total,counter" help:"Shard frames predict requests paid for (over viewstags_requests_total{route=\"predict\"}: legs per request); refresh frames are not among them."`
}

// gatewayStats is the gateway /v1/stats wire shape, and what /metrics
// encodes.
type gatewayStats struct {
	server.Snapshot
	Cluster ClusterStats `json:"cluster"`
}

// stats reads the payload both telemetry routes serve.
func (g *Gateway) stats(tp *topology) gatewayStats {
	return gatewayStats{Snapshot: g.metrics.Snapshot(), Cluster: g.clusterStats(tp)}
}

// clusterStats assembles the per-shard block.
func (g *Gateway) clusterStats(tp *topology) ClusterStats {
	cs := ClusterStats{
		Shards:      make([]ShardStatus, len(tp.targets)),
		Epoch:       tp.minEpoch(),
		Replicas:    tp.ring.Replicas(),
		Failovers:   g.failovers.Load(),
		Handoff:     g.handoff.Load(),
		RowCache:    RowCacheStats{Hits: g.rowHits.Load(), Misses: g.rowMisses.Load(), Rows: tp.rows.n.Load()},
		PredictLegs: g.predictLegs.Load(),
	}
	cs.RowCache.RefreshRows, cs.RowCache.RefreshDropped = g.refreshedRows.Load(), g.refreshDropped.Load()
	var maxEpoch uint64
	for i, s := range tp.shards {
		healthy := !s.down.Load()
		if healthy {
			cs.Healthy++
		}
		cs.Shards[i] = ShardStatus{
			Index:            i,
			Target:           tp.targets[i],
			Epoch:            s.epoch.Load(),
			Records:          s.records.Load(),
			Healthy:          healthy,
			Syncing:          s.syncing.Load(),
			StreamReconnects: tp.streams[i].reconnects(),
			RefreshLegs:      s.refreshLegs.Load(),
			RowInvalidations: RowInvalidations{
				Epoch:   s.invalidations[invalEpoch].Load(),
				Down:    s.invalidations[invalDown].Load(),
				Revived: s.invalidations[invalRevived].Load(),
				Catchup: s.invalidations[invalCatchup].Load(),
			},
		}
		cs.RowCache.RefreshLegs += cs.Shards[i].RefreshLegs
		maxEpoch = max(maxEpoch, cs.Shards[i].Epoch)
	}
	for i := range cs.Shards {
		cs.Shards[i].EpochLag = maxEpoch - cs.Shards[i].Epoch
	}
	return cs
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, g.stats(g.topo.Load()))
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	tp := g.topo.Load()
	cs := g.clusterStats(tp)
	status := "ok"
	if cs.Healthy < len(tp.targets) {
		// Degraded, not dead: reads and writes that avoid the down
		// shard still serve, so the gateway stays 200 for its own
		// liveness probe while naming the gap.
		status = "degraded"
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"shards":    len(tp.targets),
		"healthy":   cs.Healthy,
		"epoch":     cs.Epoch,
		"countries": len(g.codes),
	})
}

// handleReady is the gateway's readiness probe: unlike /healthz (which
// stays 200 while degraded, for liveness), it answers 503 whenever the
// tier cannot serve its full surface. The criterion is per-slice
// COVERAGE, not per-shard health: unreplicated, those coincide (a
// predict must touch every shard), but at R >= 2 a slice that lost one
// replica is still fully served by the survivors, so the gateway stays
// ready — rotating every gateway out because one replica died would
// turn a non-event into an outage.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	tp := g.topo.Load()
	cs := g.clusterStats(tp)
	covered := tp.ring.Covered(tp.excludedShards(nil))
	h := map[string]any{
		"shards":  len(tp.targets),
		"healthy": cs.Healthy,
		"epoch":   cs.Epoch,
		"covered": covered,
	}
	if !covered {
		h["status"] = "degraded"
		server.WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	h["status"] = "ready"
	server.WriteJSON(w, http.StatusOK, h)
}
