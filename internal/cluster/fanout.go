package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// This file is the predict fan-out core: one function that scatters a
// batch of items to every shard as one binary frame, accumulates the
// partial mixtures into a flat merged slab, and normalizes. Both
// client-facing predict paths run through it — handlePredict directly,
// and the coalescer on behalf of a micro-batch of single requests — so
// the merge arithmetic and the shard-failure semantics cannot drift
// between them.

// maxTraceLegs bounds the per-shard timing legs a fan-out records for
// span tracing. A fixed array keeps the legs inside the pooled result
// (and inside coalesceReply, which copies them by value) with zero
// allocation; clusters wider than this trace the first maxTraceLegs
// shards only.
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

// mergedPredict is a fan-out result: per-item normalized distributions
// in one row-major [nItems × nC] slab plus known flags. Values are
// pooled (getMerged/putMerged); wsums is merge-time scratch. fanStart,
// fanout, merge and the shard legs are the stage timings predictFanout
// stamps for the request trace (always overwritten on success, so
// pooling cannot leak a previous request's timings).
type mergedPredict struct {
	nC       int
	known    []bool
	wsums    []float64
	vecs     []float64
	fanStart time.Time
	fanout   time.Duration
	merge    time.Duration
	legs     [maxTraceLegs]shardLeg
	nlegs    int
}

// row returns item i's distribution, aliasing the slab.
func (m *mergedPredict) row(i int) []float64 { return m.vecs[i*m.nC : (i+1)*m.nC] }

// getMerged takes a pooled result sized for nItems, with the
// accumulation state zeroed.
func (g *Gateway) getMerged(nItems int) *mergedPredict {
	m := g.mergedPool.Get().(*mergedPredict)
	m.nC = len(g.codes)
	if cap(m.known) < nItems {
		m.known = make([]bool, nItems)
	}
	m.known = m.known[:nItems]
	m.wsums = growZeroed(m.wsums, nItems)
	m.vecs = growZeroed(m.vecs, nItems*m.nC)
	return m
}

// putMerged recycles a fan-out result.
func (g *Gateway) putMerged(m *mergedPredict) { g.mergedPool.Put(m) }

// growZeroed returns s resized to n and zeroed, reallocating only when
// capacity falls short.
func growZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// reqBufPool recycles the binary request-encode buffers.
var reqBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// replyError is a fan-out outcome that must end the client request: an
// HTTP status, the message for the error envelope, and — for 503s — the
// Retry-After hint, either propagated verbatim from a shard or derived
// from a duration.
type replyError struct {
	status        int
	msg           string
	retryAfter    string        // literal shard header, wins when set
	retryAfterDur time.Duration // fallback; SetRetryAfter floors it at 1s
}

// writeReplyError renders a fan-out failure onto the client response.
func (g *Gateway) writeReplyError(w http.ResponseWriter, fe *replyError) {
	if fe.status == http.StatusServiceUnavailable {
		if fe.retryAfter != "" {
			w.Header().Set("Retry-After", fe.retryAfter)
		} else {
			server.SetRetryAfter(w, fe.retryAfterDur)
		}
	}
	server.WriteError(w, fe.status, "%s", fe.msg)
}

// downShard returns the index of the first down shard among the needed
// ones (nil = all), or -1. The non-writing core of shedIfDown.
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
// request racing the detector would ever see. (Under coalescing this
// is every waiter in the dead window's verdict, so it must be the
// retryable one.) Shard sheds propagate as 503 with the shard's
// Retry-After; any other non-200 — a shard that is alive but answered
// malformed or mismatched — stays 502, the true bad-gateway case. nil
// means the reply body is ready to decode.
func (g *Gateway) replyErr(tp *topology, rep shardReply) *replyError {
	switch {
	case rep.err != nil:
		return &replyError{status: http.StatusServiceUnavailable, retryAfterDur: g.cfg.HealthInterval,
			msg: fmt.Sprintf("shard %d (%s): %v", rep.shard, tp.targets[rep.shard], rep.err)}
	case rep.status == http.StatusServiceUnavailable:
		return &replyError{status: http.StatusServiceUnavailable, retryAfter: rep.retryAfter,
			msg: fmt.Sprintf("shard %d shedding: %s", rep.shard, errText(rep.body))}
	case rep.status != http.StatusOK:
		return &replyError{status: http.StatusBadGateway,
			msg: fmt.Sprintf("shard %d returned %d: %s", rep.shard, rep.status, errText(rep.body))}
	}
	return nil
}

// predictFanout scatters items to every shard, gathers the partial
// mixtures and merges them into normalized per-item distributions: add
// the partial sums, add the weight masses, divide — falling back to the
// shared prior when no shard knew any tag. trace is the request id (or
// comma-joined member ids, for a coalesced micro-batch) propagated to
// every shard. On success the caller owns the returned value and must
// putMerged it.
//
// With replicas (R >= 2) a shard failing mid-fan-out is not fatal:
// the failed shards join the request's exclusion list and the whole
// fan-out re-scatters to the survivors, whose shard-side assignment
// filter re-routes the failed replicas' slices to the next live owner.
// The re-scatter must be total — the survivors' first replies were
// computed against the old exclusion and are missing the failed
// shards' assignments — so failover costs one extra round trip, and
// read availability holds as long as every slice keeps a live replica.
func (g *Gateway) predictFanout(ctx context.Context, items [][]string, weighting tagviews.Weighting, trace string) (*mergedPredict, *replyError) {
	tp := g.topo.Load()
	replicas := tp.ring.Replicas()
	exclude := tp.excludedShards(nil)
	if len(exclude) > 0 {
		if replicas <= 1 {
			i := exclude[0]
			return nil, &replyError{status: http.StatusServiceUnavailable, retryAfterDur: g.cfg.HealthInterval,
				msg: fmt.Sprintf("shard %d (%s) is down", i, tp.targets[i])}
		}
		if !tp.ring.Covered(exclude) {
			return nil, &replyError{status: http.StatusServiceUnavailable, retryAfterDur: g.cfg.HealthInterval,
				msg: fmt.Sprintf("%d of %d shards unavailable — slice coverage lost", len(exclude), len(tp.targets))}
		}
	}

	merged := g.getMerged(len(items))
	merged.nlegs = 0
	var fanDur time.Duration
	var replies []shardReply
	for attempt := 0; ; attempt++ {
		// Every shard sees every item's full tag list: it skips tags it
		// does not own, but needs the original positions for the harmonic
		// rank discount (see profilestore.PredictPartialInto). The
		// exclusion list rides along so each replica set elects exactly
		// one server per tag.
		encBuf := reqBufPool.Get().(*[]byte)
		body := server.AppendPredictRequestExclude((*encBuf)[:0], items, weighting, exclude, false)
		bodies := make([][]byte, len(tp.targets))
		for i := range bodies {
			bodies[i] = body
		}
		for _, x := range exclude {
			bodies[x] = nil
		}
		fanStart := time.Now()
		replies = g.scatter(ctx, tp, "/internal/predict", bodies, server.WireContentType, trace)
		fanDur += time.Since(fanStart)
		if attempt == 0 {
			merged.fanStart = fanStart
		}
		*encBuf = body[:0]
		reqBufPool.Put(encBuf)

		var failed []int
		for _, rep := range replies {
			if rep.status == -1 {
				continue
			}
			if merged.nlegs < maxTraceLegs {
				merged.legs[merged.nlegs] = shardLeg{
					shard:    rep.shard,
					start:    rep.start,
					dur:      rep.dur,
					err:      rep.err != nil || rep.status != http.StatusOK,
					failover: attempt > 0,
				}
				merged.nlegs++
			}
			if rep.err != nil || rep.status == http.StatusServiceUnavailable {
				failed = append(failed, rep.shard)
			}
		}
		if len(failed) == 0 || replicas <= 1 {
			break
		}
		g.failovers.Add(int64(len(failed)))
		exclude = append(exclude, failed...)
		if !tp.ring.Covered(exclude) {
			g.putMerged(merged)
			return nil, &replyError{status: http.StatusServiceUnavailable, retryAfterDur: g.cfg.HealthInterval,
				msg: fmt.Sprintf("%d of %d shards unavailable — slice coverage lost", len(exclude), len(tp.targets))}
		}
		g.logger.Printf("cluster: predict failing over from shard(s) %v, re-scattering to survivors", failed)
	}

	mergeStart := time.Now()
	for _, rep := range replies {
		if rep.status == -1 {
			continue
		}
		if fe := g.replyErr(tp, rep); fe != nil {
			g.putMerged(merged)
			return nil, fe
		}
		if fe := g.mergeBinaryReply(tp, merged, rep, len(items)); fe != nil {
			g.putMerged(merged)
			return nil, fe
		}
	}

	for i := range items {
		row := merged.row(i)
		if merged.wsums[i] == 0 {
			copy(row, g.prior)
			merged.known[i] = false
			continue
		}
		inv := 1 / merged.wsums[i]
		for c := range row {
			row[c] *= inv
		}
		merged.known[i] = true
	}
	merged.fanout = fanDur
	merged.merge = time.Since(mergeStart)
	g.metrics.Predictions.Add(int64(len(items)))
	return merged, nil
}

// addFanoutSpans records the scatter-gather stage spans onto a predict
// trace: the fan-out envelope, each shard leg (the attributable
// slow-shard evidence), and the merge. tr may be nil (tracing off or
// route exempt) — Add is nil-safe, the early return just skips the
// loop.
func addFanoutSpans(tr *obs.Trace, fanStart time.Time, fanout, merge time.Duration, legs []shardLeg) {
	if tr == nil {
		return
	}
	tr.Add("fanout", obs.NoShard, fanStart, fanout, "")
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
	tr.Add("merge", obs.NoShard, fanStart.Add(fanout), merge, "")
}

// mergeBinaryReply decodes one shard's binary frame and accumulates it.
func (g *Gateway) mergeBinaryReply(tp *topology, merged *mergedPredict, rep shardReply, nItems int) *replyError {
	pp := g.partialsPool.Get().(*server.PredictPartials)
	defer g.partialsPool.Put(pp)
	if err := server.DecodePredictResponse(rep.body, pp, nItems, merged.nC); err != nil {
		g.markFail(tp, rep.shard)
		return &replyError{status: http.StatusBadGateway,
			msg: fmt.Sprintf("shard %d: undecodable response: %v", rep.shard, err)}
	}
	if pp.NItems != nItems || pp.NC != merged.nC {
		return &replyError{status: http.StatusBadGateway,
			msg: fmt.Sprintf("shard %d returned %d partials of %d countries for %d items of %d",
				rep.shard, pp.NItems, pp.NC, nItems, merged.nC)}
	}
	for i := 0; i < nItems; i++ {
		ws := pp.WSums[i]
		// !(ws > 0), not ws <= 0: the codec transits a NaN weight sum
		// as an absent row (mirroring the encoder's predicate), and a
		// NaN accumulated here would poison the whole merged item.
		if !(ws > 0) {
			continue
		}
		merged.wsums[i] += ws
		row := merged.row(i)
		src := pp.Sums[i*pp.NC : (i+1)*pp.NC]
		for c, x := range src {
			row[c] += x
		}
	}
	g.markOK(tp, rep.shard, pp.Epoch)
	return nil
}
