package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/server"
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

// shedIfDown answers 503 when any of the needed shards is marked down —
// the health-based shedding path: a request that must touch a dead
// shard is rejected immediately instead of stacking connect timeouts
// onto every client. needed == nil means "all shards".
func (g *Gateway) shedIfDown(w http.ResponseWriter, tp *topology, needed []bool) bool {
	if i := tp.downShard(needed); i >= 0 {
		server.SetRetryAfter(w, g.cfg.HealthInterval)
		server.WriteError(w, http.StatusServiceUnavailable, "shard %d (%s) is down", i, tp.targets[i])
		return true
	}
	return false
}

// topShares renders the k highest-share countries of a merged
// prediction — the gateway analogue of the server-side helper, over the
// synced country table.
func (g *Gateway) topShares(p []float64, k int) []server.CountryShare {
	if k <= 0 {
		k = 5
	}
	_, top := dist.TopShare(p, k)
	out := make([]server.CountryShare, len(top))
	for i, c := range top {
		out[i] = server.CountryShare{Country: g.codes[c], Share: p[c]}
	}
	return out
}

func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Request barrier: a reshard cutover takes this exclusively, so no
	// predict straddles two topologies. Uncontended RLock in steady
	// state.
	g.gate.RLock()
	defer g.gate.RUnlock()
	var req server.PredictRequest
	if !server.DecodePredictBody(w, r, &g.metrics.Predict, &req) {
		return
	}
	decodeDur := time.Since(start)
	parsed, err := tagviews.ParseWeighting(req.Weighting)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	single := len(req.Tags) > 0
	if single && len(req.Batch) > 0 {
		server.WriteError(w, http.StatusBadRequest, "set either tags or batch, not both")
		return
	}
	if !single && len(req.Batch) == 0 {
		server.WriteError(w, http.StatusBadRequest, "empty request: provide tags or batch")
		return
	}
	if len(req.Batch) > g.cfg.MaxBatch {
		server.WriteError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Batch), g.cfg.MaxBatch)
		return
	}
	// Full per-item validation at the edge (including the MaxTagLen
	// bound the binary wire enforces): a bad item must 400 here, not
	// bounce off a shard decoder mid-fan-out as a 502.
	var items [][]string
	if single {
		if !server.ValidTags(w, 0, req.Tags) {
			return
		}
		items = [][]string{req.Tags}
	} else {
		items = make([][]string, len(req.Batch))
		for i := range req.Batch {
			if !server.ValidTags(w, i, req.Batch[i].Tags) {
				return
			}
			items[i] = req.Batch[i].Tags
		}
	}

	tr := server.TraceFrom(r)
	tr.Add("decode", obs.NoShard, start, decodeDur, "")
	results := make([]server.PredictResult, len(items))
	merged, fe := g.predictFanout(r.Context(), items, parsed, server.RequestID(r))
	if fe != nil {
		g.writeReplyError(w, fe)
		return
	}
	addFanoutSpans(tr, merged)
	for i := range items {
		results[i] = server.PredictResult{Known: merged.known[i], Top: g.topShares(merged.row(i), req.Top)}
	}
	g.putMerged(merged)

	resp := server.PredictResponse{Weighting: parsed.String()}
	if single {
		resp.Result = &results[0]
	} else {
		resp.Results = results
	}
	encStart := time.Now()
	server.WritePredictResponse(w, &resp)
	tr.Add("encode", obs.NoShard, encStart, time.Since(encStart), "")
}

// gatherOK maps one shard reply onto the client response through the
// same replyErr mapping the predict fan-out uses, so a shard dying
// mid-ingest sheds exactly like one dying mid-predict (503 +
// Retry-After); shard 400s surface as 502 (the gateway validates with
// the shard's own validator, so these indicate a version skew worth
// surfacing, not hiding). Returns false when the reply ended the
// request; on true, out holds the decoded ack. Skipped shards
// (status -1) are ignored.
func (g *Gateway) gatherOK(w http.ResponseWriter, tp *topology, rep shardReply, out *server.IngestResponse) bool {
	if rep.status == -1 {
		return true
	}
	if fe := g.replyErr(tp, rep); fe != nil {
		g.writeReplyError(w, fe)
		return false
	}
	if err := server.DecodeIngestResponse(rep.body, out); err != nil {
		g.markFail(tp, rep.shard)
		server.WriteError(w, http.StatusBadGateway, "shard %d: undecodable response: %v", rep.shard, err)
		return false
	}
	return true
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

func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Both barriers: the reshard cutover holds gate exclusively, and
	// replica catch-up holds writeGate exclusively across its
	// export+import pair — a write landing mid-copy on the exporting
	// side would be missed by the importer yet already folded by the
	// exporter, breaking the exact-dedup merge.
	g.gate.RLock()
	defer g.gate.RUnlock()
	g.writeGate.RLock()
	defer g.writeGate.RUnlock()
	var req server.IngestRequest
	if !server.DecodeIngestBody(w, r, &g.metrics.Ingest, &req) {
		return
	}
	if len(req.Events) == 0 {
		server.WriteError(w, http.StatusBadRequest, "empty request: provide events")
		return
	}
	if len(req.Events) > g.cfg.MaxBatch {
		server.WriteError(w, http.StatusBadRequest, "batch of %d events exceeds limit %d", len(req.Events), g.cfg.MaxBatch)
		return
	}
	// Validate the whole batch up front with the shards' own validator:
	// the batch is all-or-nothing across shards, so nothing may be
	// dispatched until every event would be accepted everywhere.
	events := make([]ingest.Event, len(req.Events))
	for i := range req.Events {
		e := &req.Events[i]
		c, ok := g.codeIndex[e.Country]
		if !ok {
			server.WriteError(w, http.StatusBadRequest, "event %d: unknown country %q", i, e.Country)
			return
		}
		events[i] = ingest.Event{Video: e.Video, Tags: e.Tags, Country: geo.CountryID(c), Views: e.Views, Upload: e.Upload}
	}
	if _, err := ingest.Validate(events, len(g.codes)); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

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
	perShard := make([]server.InternalIngestRequest, len(tp.targets))
	tagsByShard := make([][]string, len(tp.targets))
	var ownerBuf []int
	for i := range req.Events {
		e := &req.Events[i]
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
					server.SetRetryAfter(w, g.cfg.HealthInterval)
					server.WriteError(w, http.StatusServiceUnavailable, "event %d: every replica of tag %q's slice is down", i, tag)
					return
				}
			}
		}
		for s := range perShard {
			if replicas > 1 && tp.shards[s].down.Load() {
				continue
			}
			if len(tagsByShard[s]) > 0 {
				perShard[s].Events = append(perShard[s].Events, server.IngestEvent{
					Video:   e.Video,
					Tags:    append([]string(nil), tagsByShard[s]...),
					Country: e.Country,
					Views:   e.Views,
					Upload:  e.Upload,
				})
			} else if e.Upload {
				perShard[s].Uploads = append(perShard[s].Uploads, e.Video)
			}
		}
	}

	needed := make([]bool, len(tp.targets))
	bodies := make([][]byte, len(tp.targets))
	for s := range perShard {
		if len(perShard[s].Events) == 0 && len(perShard[s].Uploads) == 0 {
			continue
		}
		needed[s] = true
		body, err := server.MarshalInternalIngestRequest(&perShard[s])
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		bodies[s] = body
	}
	if replicas <= 1 && g.shedIfDown(w, tp, needed) {
		return
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
	replies := g.scatter(r.Context(), tp, legIngest, bodies, "application/json", server.RequestID(r))
	server.TraceFrom(r).Add("fanout", obs.NoShard, fanStart, time.Since(fanStart), "")
	for _, rep := range replies {
		if rep.status == -1 {
			continue // shard not involved: no reply, no health signal
		}
		if !g.gatherOK(w, tp, rep, &acks[rep.shard]) {
			return
		}
		g.markOK(tp, rep.shard, acks[rep.shard].Epoch)
	}
	var pending int64
	for s := range acks {
		if needed[s] {
			pending += acks[s].Pending
		}
	}
	server.WriteIngestResponse(w, &server.IngestResponse{
		Accepted: len(req.Events),
		Epoch:    tp.minEpoch(),
		Pending:  pending,
	})
}

func (g *Gateway) handleTags(w http.ResponseWriter, r *http.Request) {
	k := 20
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			server.WriteError(w, http.StatusBadRequest, "invalid k %q", v)
			return
		}
		k = n
	}
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
				server.SetRetryAfter(w, g.cfg.HealthInterval)
				server.WriteError(w, http.StatusServiceUnavailable, "%d of %d shards unavailable — slice coverage lost", len(excl), len(tp.targets))
				return
			}
			skip = make([]bool, len(tp.targets))
			for _, s := range excl {
				skip[s] = true
			}
		}
	} else if g.shedIfDown(w, tp, nil) {
		return
	}
	// Tags are partitioned, so each shard's top-k is globally correct
	// for the tags it owns and the global top-k is a k-way merge of the
	// per-shard lists (replicas contribute duplicates, dropped below).
	type tagsReply struct {
		Tags []server.TagInfo `json:"tags"`
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
			var reply tagsReply
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
			server.SetRetryAfter(w, 0)
			server.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
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
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].TotalViews != merged[b].TotalViews {
			return merged[a].TotalViews > merged[b].TotalViews
		}
		return merged[a].Name < merged[b].Name
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	server.WriteJSON(w, http.StatusOK, map[string][]server.TagInfo{"tags": merged})
}

// ShardStatus is one shard's entry in the gateway's /v1/stats and
// /healthz cluster blocks. Syncing marks a revived replica still
// rebuilding from its peers: taking writes, out of read rotation.
// RowInvalidations counts, by cause, the times every row cached from
// the shard went stale at once.
type ShardStatus struct {
	Index            int              `json:"index"`
	Target           string           `json:"target"`
	Epoch            uint64           `json:"epoch"`
	Records          int64            `json:"records"`
	Healthy          bool             `json:"healthy"`
	Syncing          bool             `json:"syncing,omitempty"`
	RowInvalidations RowInvalidations `json:"row_invalidations"`
}

// RowInvalidations is one shard's viewstags_row_cache_invalidations_total
// by cause: its tracked epoch advanced, it was marked down, it came back
// up, it was rebuilt from its peers.
type RowInvalidations struct {
	Epoch   int64 `json:"epoch"`
	Down    int64 `json:"down"`
	Revived int64 `json:"revived"`
	Catchup int64 `json:"catchup"`
}

// RowCacheStats is the predict row cache's view in the /v1/stats
// cluster block; /metrics renders the same counters as
// viewstags_row_cache_*. Hits and Misses count tag positions resolved
// from the cache at first look or fetched; Rows is what the current
// topology's cache holds. Refresh*: rows re-read in bulk after observed
// folds, the frames that took (never in PredictLegs), rows dropped idle.
type RowCacheStats struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Rows           int64 `json:"rows"`
	RefreshRows    int64 `json:"refresh_rows"`
	RefreshLegs    int64 `json:"refresh_legs"`
	RefreshDropped int64 `json:"refresh_dropped"`
}

// ClusterStats is the gateway's cluster-level view: per-shard status
// plus the minimum epoch — the conservative fold horizon clients should
// compare ingest acks against. Replicas reports the placement factor
// when the tier is replicated, and Handoff the last reshard's record
// (phase "idle" once complete; its epoch counts completed handoffs).
// RowCache and PredictLegs are the predict path's own counters:
// PredictLegs over the predict route's request count is legs per
// request, the number the row cache moves.
type ClusterStats struct {
	Shards      []ShardStatus  `json:"shards"`
	Epoch       uint64         `json:"epoch"`
	Healthy     int            `json:"healthy"`
	Replicas    int            `json:"replicas,omitempty"`
	Handoff     *HandoffStatus `json:"handoff,omitempty"`
	RowCache    RowCacheStats  `json:"row_cache"`
	PredictLegs int64          `json:"predict_legs"`
}

// gatewayStats is the gateway /v1/stats wire shape.
type gatewayStats struct {
	server.Snapshot
	Cluster ClusterStats `json:"cluster"`
}

// clusterStats assembles the per-shard block.
func (g *Gateway) clusterStats(tp *topology) ClusterStats {
	cs := ClusterStats{
		Shards:      make([]ShardStatus, len(tp.targets)),
		Epoch:       tp.minEpoch(),
		Handoff:     g.handoff.Load(),
		RowCache:    RowCacheStats{Hits: g.rowHits.Load(), Misses: g.rowMisses.Load(), Rows: tp.rows.n.Load()},
		PredictLegs: g.predictLegs.Load(),
	}
	cs.RowCache.RefreshRows, cs.RowCache.RefreshDropped = g.refreshedRows.Load(), g.refreshDropped.Load()
	if r := tp.ring.Replicas(); r > 1 {
		cs.Replicas = r
	}
	for i, s := range tp.shards {
		healthy := !s.down.Load()
		if healthy {
			cs.Healthy++
		}
		cs.RowCache.RefreshLegs += s.refreshLegs.Load()
		cs.Shards[i] = ShardStatus{
			Index:   i,
			Target:  tp.targets[i],
			Epoch:   s.epoch.Load(),
			Records: s.records.Load(),
			Healthy: healthy,
			Syncing: s.syncing.Load(),
		}
		cs.Shards[i].RowInvalidations = RowInvalidations{
			Epoch:   s.invalidations[invalEpoch].Load(),
			Down:    s.invalidations[invalDown].Load(),
			Revived: s.invalidations[invalRevived].Load(),
			Catchup: s.invalidations[invalCatchup].Load(),
		}
	}
	return cs
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, gatewayStats{
		Snapshot: g.metrics.Snapshot(),
		Cluster:  g.clusterStats(g.topo.Load()),
	})
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
