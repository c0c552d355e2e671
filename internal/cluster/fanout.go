package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// This file is the predict core: one function that resolves every tag
// of a batch of items to a per-tag row — from the topology's row cache
// where one held under the shard's observed version is, from the tag's
// owner shard otherwise, whose reply states its version — and
// mixes each item's rows with the kernel a node's own predict runs.
// Gateway.Predict is its one caller, so every fan-out runs on its
// client's goroutine, under the request barrier and bounded by that
// client's context.

// maxTraceLegs bounds the per-shard timing legs a fan-out records for
// span tracing. A fixed array keeps the legs inside the pooled result
// with zero allocation; clusters wider than this trace the first
// maxTraceLegs shards only.
const maxTraceLegs = 16

// shardLeg is one shard's leg of a predict fan-out: when the call
// started, how long it took (connect + shard handler + body read), and
// whether it failed. failover marks legs from a re-scatter after a
// replica failed mid-fan-out — in the trace they span as "failover"
// instead of "shard", so a stitched view names which replica ended up
// serving a failed-over read. These become per-shard child spans on the
// request's trace — the evidence that attributes a slow fan-out to a
// specific shard.
type shardLeg struct {
	shard    int
	start    time.Time
	dur      time.Duration
	err      bool
	failover bool
}

// maxEpochMoves bounds how often one request lets one shard's replies
// move its view of that shard's version before it gives up with a
// retryable 503. One move is a fold this request was the first to
// observe; two, a reply whose label trailed its fold; more means the
// shard is folding faster than a request can re-read it.
const maxEpochMoves = 4

// shardView is one request's view of one shard, read once when the
// request starts: whether the shard is in read rotation, and the version
// the gateway has observed for it. A fetch reply that states another
// version moves ver (and nothing else) for the rest of the request, and
// is counted in moves.
type shardView struct {
	ok    bool
	ver   server.ShardVersion
	moves int
}

// usable is the validity rule — the whole correctness argument of the
// row cache: a row may serve this request iff its shard is in read
// rotation for the request and the row was read under the version the
// request holds for that shard — the same incarnation and fold epoch.
// Every row a request combines passed this against the request's final
// view, so all rows taken from one shard come from one version of it —
// what a single leg used to guarantee, and what IDF needs (the shard's
// record count n enters every weight).
func usable(view []shardView, r *tagRow) bool {
	v := &view[r.shard]
	return v.ok && r.version().Compare(v.ver) == 0
}

// missTag is one distinct tag a request could not resolve from the
// cache this round, and the row its owner answered with.
type missTag struct {
	tag string
	row *tagRow
}

// mergedPredict is a predict's own state beside the distributions it
// writes into the contract's server.Predictions. Values are pooled
// (getMerged/putMerged). fanStart, fanout, merge and the shard legs are
// the stage timings predictFanout stamps for the request trace (always
// overwritten on success, so pooling cannot leak a previous request's
// timings); a request answered from cached rows alone has no legs and a
// zero fanout. Everything below the timings is per-request resolve
// scratch, cleared by putMerged.
type mergedPredict struct {
	fanStart time.Time
	fanout   time.Duration
	merge    time.Duration
	legs     [maxTraceLegs]shardLeg
	nlegs    int

	view     []shardView
	rows     []*tagRow        // one per tag position, items flattened
	fetched  bool             // some round had misses: the scratch below is dirty
	slotMiss []int32          // per position: its index in misses, when unresolved
	misses   []missTag        // distinct unresolved tags of the current round
	missIdx  map[string]int32 // tag → index in misses
	want     [][]int32        // per shard: the misses asked of it this round
	bodies   [][]byte         // per shard: this round's request frame
	bufs     []*[]byte        // per shard: the pooled buffer behind bodies
	oneTag   []string         // frame-encode scratch: the tags of one frame
}

// wantTags lists the tags asked of shard s this round (shared scratch).
func (m *mergedPredict) wantTags(s int) []string {
	m.oneTag = m.oneTag[:0]
	for _, i := range m.want[s] {
		m.oneTag = append(m.oneTag, m.misses[i].tag)
	}
	return m.oneTag
}

// getMerged takes a pooled predict state for items carrying nTags tags
// in all, over nShards shards.
func (g *Gateway) getMerged(nTags, nShards int) *mergedPredict {
	m := g.mergedPool.Get().(*mergedPredict)
	m.nlegs, m.fanout, m.fetched = 0, 0, false
	if cap(m.rows) < nTags {
		m.rows = make([]*tagRow, nTags)
		m.slotMiss = make([]int32, nTags)
	}
	m.rows, m.slotMiss = m.rows[:nTags], m.slotMiss[:nTags]
	if cap(m.view) < nShards {
		m.view = make([]shardView, nShards)
		m.want = make([][]int32, nShards)
		m.bodies = make([][]byte, nShards)
		m.bufs = make([]*[]byte, nShards)
	}
	m.view, m.want, m.bodies, m.bufs = m.view[:nShards], m.want[:nShards], m.bodies[:nShards], m.bufs[:nShards]
	if m.missIdx == nil {
		m.missIdx = make(map[string]int32)
	}
	return m
}

// putMerged recycles a predict result. The resolve scratch is cleared
// first: its tags are substrings of request bodies and its rows may
// since have been evicted, and a pooled value must pin neither. The
// miss-side scratch is cleared to capacity (a later round may have used
// less of it than an earlier one), and only when the request missed.
func (g *Gateway) putMerged(m *mergedPredict) {
	clear(m.rows)
	if m.fetched {
		clear(m.misses[:cap(m.misses)])
		clear(m.missIdx)
		clear(m.oneTag[:cap(m.oneTag)])
	}
	g.mergedPool.Put(m)
}

// reqBufPool recycles the binary request-encode buffers.
var reqBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// unavailable is the gateway's own 503: the tier cannot serve the
// request now, and the health loop is what changes that, so the client is
// told to come back after one health interval.
func (g *Gateway) unavailable(format string, args ...any) *server.ErrorReply {
	return &server.ErrorReply{Status: http.StatusServiceUnavailable, Msg: fmt.Sprintf(format, args...),
		RetryAfter: server.RetryAfterSecs(g.cfg.HealthInterval)}
}

// downShard returns the index of the first down shard among the needed
// ones (nil = all), or -1.
func (tp *topology) downShard(needed []bool) int {
	for i, s := range tp.shards {
		if needed != nil && !needed[i] {
			continue
		}
		if s.down.Load() {
			return i
		}
	}
	return -1
}

// replyErr maps one shard reply's transport/status outcome onto a
// client-ending error: a TRANSPORT failure mid-fan-out is the moment a
// shard died under us — the same condition health shedding answers
// 503+Retry-After for once the detector catches up — so it gets the
// identical retryable answer here, instead of a 502 that only a
// request racing the detector would ever see. Shard sheds propagate as
// 503 with the shard's Retry-After; any other non-200 — a shard that is
// alive but answered malformed or mismatched — stays 502, the true
// bad-gateway case. nil means the reply body is ready to decode.
func (g *Gateway) replyErr(tp *topology, rep shardReply) *server.ErrorReply {
	switch {
	case rep.err != nil:
		return g.unavailable("shard %d (%s): %v", rep.shard, tp.targets[rep.shard], rep.err)
	case rep.status == http.StatusServiceUnavailable:
		retry := rep.retryAfter
		if retry == "" {
			retry = server.RetryAfterSecs(0)
		}
		return &server.ErrorReply{Status: http.StatusServiceUnavailable, RetryAfter: retry,
			Msg: fmt.Sprintf("shard %d shedding: %s", rep.shard, errText(rep.body))}
	case rep.status != http.StatusOK:
		return &server.ErrorReply{Status: http.StatusBadGateway,
			Msg: fmt.Sprintf("shard %d returned %d: %s", rep.shard, rep.status, errText(rep.body))}
	}
	return nil
}

// predictFanout answers a batch of items from per-tag rows: resolve
// every tag to a row (the topology's cache first), fetch the distinct
// tags still missing — each from the one shard the ring assigns it, in a
// rows request — then mix each item's rows in tag order with
// profilestore.Mix and Normalize, a node's PredictInto term for term, so
// the reply is a node's bit for bit. The distributions go into out. A
// request whose rows are all cached and usable makes no shard leg. trace
// is the request id, propagated to every shard asked. On success the
// caller owns the returned value and must putMerged it.
//
// Rows are re-checked against the request's view (see usable) at the
// top of every round, so whatever moved the view during the last round
// — a reply that states another version, a replica that failed —
// un-resolves exactly the rows it retired and the next round
// fetches them again. A shard gets at most one frame per round, of at
// most MaxBatch tags; what does not fit waits for the next round.
//
// The request's exclusion list starts as the shards out of read rotation,
// and each missing tag is asked of the replica Ring.Assign gives it over
// that list — the one place a read's replica is chosen; the shard answers
// what it is asked. At R=1 any exclusion loses some slice, so a down
// shard is a 503 before anything is fetched. With replicas (R >= 2) a
// shard failing mid-request is not fatal: it joins the exclusion list,
// which both drops its rows from this request's view and re-assigns its
// missing tags to their next live owner. Only the failed shard's tags are
// fetched again, and read availability holds as long as every slice keeps
// a live replica.
func (g *Gateway) predictFanout(ctx context.Context, items [][]string, weighting tagviews.Weighting, trace string, out *server.Predictions) (*mergedPredict, *server.ErrorReply) {
	start := time.Now()
	tp := g.topo.Load()
	replicas := tp.ring.Replicas()
	exclude := tp.excludedShards(nil)
	if !tp.ring.Covered(exclude) {
		return nil, g.coverageLost(tp, exclude)
	}

	nTags := 0
	for _, tags := range items {
		nTags += len(tags)
	}
	m := g.getMerged(nTags, len(tp.shards))
	for s, st := range tp.shards {
		m.view[s] = shardView{ok: true, ver: st.version()}
	}
	for _, s := range exclude {
		m.view[s].ok = false
	}

	var pp *server.PredictPartials
	failedOver := false
	for round := 0; ; round++ {
		// Resolve: keep what is still usable, look the rest up, and
		// collect what the cache cannot answer.
		m.misses = m.misses[:0]
		clear(m.missIdx)
		k, missed := 0, 0
		for _, tags := range items {
			for _, tag := range tags {
				r := m.rows[k]
				if r == nil || !usable(m.view, r) {
					if r = tp.rows.get(tag); r != nil && !usable(m.view, r) {
						r = nil
					}
					m.rows[k] = r
				}
				if r == nil {
					i, seen := m.missIdx[tag]
					if !seen {
						i = int32(len(m.misses))
						m.missIdx[tag] = i
						m.misses = append(m.misses, missTag{tag: tag})
					}
					m.slotMiss[k] = i
					missed++
				}
				k++
			}
		}
		if round == 0 {
			g.rowHits.Add(int64(nTags - missed))
			g.rowMisses.Add(int64(missed))
		}
		if len(m.misses) == 0 {
			break
		}
		m.fetched = true

		// Fetch: each missing tag from the owner the ring assigns it.
		for s := range m.want {
			m.want[s] = m.want[s][:0]
		}
		for i := range m.misses {
			s := tp.ring.Assign(m.misses[i].tag, exclude)
			if s < 0 {
				g.putMerged(m)
				return nil, g.coverageLost(tp, exclude)
			}
			if len(m.want[s]) < g.cfg.MaxBatch {
				m.want[s] = append(m.want[s], int32(i))
			}
		}
		for s, want := range m.want {
			m.bodies[s] = nil
			if len(want) == 0 {
				continue
			}
			m.bufs[s] = reqBufPool.Get().(*[]byte)
			m.bodies[s] = server.AppendRowsRequest((*m.bufs[s])[:0], m.wantTags(s))
		}
		fanStart := time.Now()
		replies := fanOut(g, ctx, tp, posts{legPredict, m.bodies, server.WireContentType, trace})
		m.fanout += time.Since(fanStart)
		if m.nlegs == 0 {
			m.fanStart = fanStart
		}
		for s, body := range m.bodies {
			if body != nil {
				*m.bufs[s] = body[:0]
				reqBufPool.Put(m.bufs[s])
			}
		}

		// Gather: turn each reply into rows, publish them, and let the
		// reply's version and the shard's fate move the view.
		var failed []int
		for _, rep := range replies {
			if rep.status == -1 {
				continue
			}
			g.predictLegs.Add(1)
			if m.nlegs < maxTraceLegs {
				m.legs[m.nlegs] = shardLeg{
					shard:    rep.shard,
					start:    rep.start,
					dur:      rep.dur,
					err:      rep.err != nil || rep.status != http.StatusOK,
					failover: failedOver,
				}
				m.nlegs++
			}
			if replicas > 1 && (rep.err != nil || rep.status == http.StatusServiceUnavailable) {
				failed = append(failed, rep.shard)
				continue
			}
			fe := g.replyErr(tp, rep)
			if fe == nil {
				if pp == nil {
					pp = g.partialsPool.Get().(*server.PredictPartials)
					defer g.partialsPool.Put(pp)
				}
				// Cache keys must not alias the request body, as the tags do.
				tags := m.wantTags(rep.shard)
				for j := range tags {
					tags[j] = strings.Clone(tags[j])
				}
				var rows []tagRow
				rows, fe = g.takeRows(tp, rep.shard, tags, rep.body, pp)
				for j := range rows {
					m.misses[m.want[rep.shard][j]].row = &rows[j]
				}
			}
			if v := &m.view[rep.shard]; fe == nil && v.ver.Compare(pp.Version) != 0 {
				v.ver = pp.Version
				if v.moves++; v.moves > maxEpochMoves {
					fe = g.unavailable("shard %d (%s) changed version %d times under one predict", rep.shard, tp.targets[rep.shard], v.moves)
				}
			}
			if fe != nil {
				g.putMerged(m)
				return nil, fe
			}
		}
		if len(failed) > 0 {
			g.failovers.Add(int64(len(failed)))
			failedOver = true
			exclude = append(exclude, failed...)
			for _, s := range failed {
				m.view[s].ok = false
			}
			if !tp.ring.Covered(exclude) {
				g.putMerged(m)
				return nil, g.coverageLost(tp, exclude)
			}
			g.logger.Printf("cluster: predict failing over from shard(s) %v, asking their tags of the surviving replicas", failed)
		}
		for k, r := range m.rows {
			if r == nil {
				m.rows[k] = m.misses[m.slotMiss[k]].row
			}
		}
	}

	// Weight with a node's rule, combine per position, duplicates
	// included, and normalize.
	k := 0
	for i, tags := range items {
		dst := out.Row(i)
		clear(dst)
		var ws float64
		for j := range tags {
			r := m.rows[k] // absent: no views, so no weight
			if weight := r.weight(weighting); weight > 0 {
				ws += profilestore.Mix(dst, weight, r.views, j, r.vec)
			}
			k++
		}
		out.Known[i] = profilestore.Normalize(dst, ws, g.prior)
	}
	if m.nlegs == 0 {
		m.fanStart = start
	}
	m.merge = time.Since(start) - m.fanout
	return m, nil
}

// coverageLost is the 503 for an exclusion list that leaves some slice
// without a live replica; it names the shards out of rotation.
func (g *Gateway) coverageLost(tp *topology, exclude []int) *server.ErrorReply {
	out := make([]string, len(exclude))
	for i, s := range exclude {
		out[i] = fmt.Sprintf("shard %d (%s)", s, tp.targets[s])
	}
	return g.unavailable("%s out of rotation — slice coverage lost", strings.Join(out, ", "))
}

// takeRows is the one row constructor, for a request's fetch and a
// refresh pass (rowrefresh.go) alike: it decodes a shard's reply to a
// rows request (tags, in order; the cache keeps them as keys) into rows
// labelled with the version the reply states, observes that version, and
// publishes the rows to the topology's cache — unless the slot already
// holds a newer version: such rows answer the request that fetched them,
// which holds the reply's version for the shard, and no later one.
// Read and retired together, a frame's rows share two allocations: the
// structs, and one slab for the vectors (a copy, never the reply buffer).
func (g *Gateway) takeRows(tp *topology, shard int, tags []string, body []byte, pp *server.PredictPartials) ([]tagRow, *server.ErrorReply) {
	n, nC := len(tags), len(g.codes)
	if err := server.DecodePredictResponse(body, pp, n, nC); err != nil {
		g.markFail(tp, shard, err)
		return nil, &server.ErrorReply{Status: http.StatusBadGateway,
			Msg: fmt.Sprintf("shard %d: undecodable response: %v", shard, err)}
	}
	if !pp.Rows || pp.NItems != n || pp.NC != nC {
		return nil, &server.ErrorReply{Status: http.StatusBadGateway,
			Msg: fmt.Sprintf("shard %d returned %d partials of %d countries (rows %v) for %d rows of %d",
				shard, pp.NItems, pp.NC, pp.Rows, n, nC)}
	}
	g.markOK(tp, shard, pp.Version)
	publish := pp.Version.Compare(tp.shards[shard].version()) >= 0
	// !(views > 0), not views <= 0: the codec transits a NaN view total
	// as an absent row (mirroring the encoder's predicate), and a NaN
	// combined later would poison the whole item.
	known := 0
	for _, views := range pp.WSums[:n] {
		if views > 0 {
			known++
		}
	}
	rows, vecs := make([]tagRow, n), make([]float64, known*nC)
	for j := range rows {
		r := &rows[j]
		r.shard, r.inc, r.epoch = uint16(shard), pp.Version.Incarnation, pp.Version.Epoch
		if views := pp.WSums[j]; views > 0 {
			r.views, r.idf = views, tagviews.WeightIDF.Weight(views, pp.Videos[j], pp.Version.Records)
			r.vec, vecs = vecs[:nC:nC], vecs[nC:]
			copy(r.vec, pp.Sums[j*nC:(j+1)*nC])
		}
		if publish {
			tp.rows.put(tags[j], r)
		}
	}
	return rows, nil
}

// addFanoutSpans records the predict core's stage spans onto a trace:
// when the request needed any shard, the fan-out envelope (every fetch
// round, end to end) and each shard leg (the attributable slow-shard
// evidence); always the merge — the time predictFanout spent outside
// its legs, resolving rows and combining them. A request answered from
// cached rows has a merge span and nothing else here. tr may be nil
// (tracing off or route exempt) — Add is nil-safe, the early return just
// skips the loop.
func addFanoutSpans(tr *obs.Trace, m *mergedPredict) {
	if tr == nil {
		return
	}
	legs := m.legs[:m.nlegs]
	if len(legs) > 0 {
		tr.Add("fanout", obs.NoShard, m.fanStart, m.fanout, "")
	}
	for _, leg := range legs {
		status := ""
		if leg.err {
			status = "error"
		}
		name := "shard"
		if leg.failover {
			// A re-scatter leg after a replica failure: the span names
			// which surviving replica served the failed-over read.
			name = "failover"
		}
		tr.Add(name, leg.shard, leg.start, leg.dur, status)
	}
	tr.Add("merge", obs.NoShard, m.fanStart.Add(m.fanout), m.merge, "")
}
