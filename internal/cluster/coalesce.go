package cluster

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// The coalescer turns N concurrent /v1/predict requests into one pass
// through predictFanout. What a predict costs beyond its cached rows is
// the round trip to each shard it is missing rows from — work that is
// identical whether the frame asks for one tag or two hundred — so under
// concurrent load the gateway can spend at most one round trip per
// shard per *window* instead of per request. The first request to
// arrive opens a micro-batch and arms a timer (CoalesceWindow,
// ~250µs–1ms); requests landing inside the window splice their items
// onto it; when the timer fires — or the batch reaches the shard batch
// cap first — one fan-out runs and each waiter gets back its own rows
// of the merged result. Singles and small client batches share the
// same micro-batches: a waiter is just an offset and a width.
//
// Batches are keyed by weighting scheme: items under different
// weightings cannot share an internal call (the shard applies one
// scheme to the whole batch). Top-k differs per waiter but is applied
// at render time, after de-multiplexing, so it never splits a batch.
//
// The fan-out runs on a detached context bounded by ShardTimeout: the
// batch serves every waiter, so no single client's cancellation may
// abort it. A waiter whose own context ends while waiting simply
// abandons its (buffered) reply slot.
type coalescer struct {
	g      *Gateway
	window time.Duration
	limit  int

	mu      sync.Mutex
	pending map[tagviews.Weighting]*coalesceBatch
}

// coalesceWaiter is one request's stake in a batch: its reply channel,
// the [off, off+n) item rows it contributed, its trace id (joined with
// the other members' ids on the shard-bound header) and its enqueue
// time (for the coalesce-wait stage timing).
type coalesceWaiter struct {
	ch    chan coalesceReply
	off   int
	n     int
	trace string
	enq   time.Time
}

type coalesceBatch struct {
	weighting tagviews.Weighting
	items     [][]string
	waiters   []coalesceWaiter
	// bytes approximates the encoded size of items (tag bytes plus
	// per-tag and per-item framing); see coalesceByteBudget.
	bytes int
	timer *time.Timer
}

// coalesceByteBudget caps a micro-batch's approximate encoded size.
// The item-count cap alone is not enough: MaxBatch individually-valid
// requests with long tag lists could splice into one internal body
// past the shard's server.MaxBodyBytes reader limit, failing every
// co-batched waiter at once. Half the shard bound leaves generous
// room for framing slack.
const coalesceByteBudget = server.MaxBodyBytes / 2

// itemsBytes approximates the encoded size of a request's tag lists.
func itemsBytes(items [][]string) int {
	n := 0
	for _, tags := range items {
		n += 4
		for _, t := range tags {
			n += len(t) + 4
		}
	}
	return n
}

// coalesceReply is one waiter's share of a batch outcome: its
// normalized distributions in pooled vectors (the waiter must return
// each to g.scratch after rendering), or the batch-wide error — plus
// the stage timings the request trace reports (wait is this waiter's
// enqueue-to-fan-out time; fanStart, fanout, merge and the shard legs
// are batch-wide). The legs travel by value:
// a waiter whose context ended abandons its reply and its pooled trace
// gets recycled, so the batch goroutine must never hold a pointer into
// waiter-owned state.
type coalesceReply struct {
	vecs     []*[]float64
	known    []bool
	wait     time.Duration
	fanStart time.Time
	fanout   time.Duration
	merge    time.Duration
	legs     [maxTraceLegs]shardLeg
	nlegs    int
	members  int
	fe       *replyError
}

func newCoalescer(g *Gateway, window time.Duration, limit int) *coalescer {
	if limit < 1 {
		limit = 1
	}
	return &coalescer{
		g:       g,
		window:  window,
		limit:   limit,
		pending: make(map[tagviews.Weighting]*coalesceBatch),
	}
}

// do splices items onto the pending micro-batch for the weighting (or
// opens one) and blocks until the batch's fan-out resolves or ctx ends.
// len(items) must be in [1, limit] — the gateway's MaxBatch check
// guarantees it.
func (co *coalescer) do(ctx context.Context, items [][]string, weighting tagviews.Weighting, trace string) coalesceReply {
	ch := make(chan coalesceReply, 1)
	nb := itemsBytes(items)
	enq := time.Now()
	co.mu.Lock()
	b := co.pending[weighting]
	var runFirst *coalesceBatch
	if b != nil && (len(b.items)+len(items) > co.limit || b.bytes+nb > coalesceByteBudget) {
		// This waiter would push the pending batch past the shard batch
		// cap (item count or encoded bytes): claim and run what
		// accumulated, splice onto a fresh one.
		delete(co.pending, weighting)
		runFirst = b
		b = nil
	}
	if b == nil {
		b = &coalesceBatch{weighting: weighting}
		co.pending[weighting] = b
		b.timer = time.AfterFunc(co.window, func() { co.flush(b) })
	}
	b.waiters = append(b.waiters, coalesceWaiter{ch: ch, off: len(b.items), n: len(items), trace: trace, enq: enq})
	b.items = append(b.items, items...)
	b.bytes += nb
	var runNow *coalesceBatch
	if len(b.items) >= co.limit || b.bytes >= coalesceByteBudget {
		// The batch hit the cap. Claim it under the same lock that
		// filled it — if the delete happened outside this critical
		// section, requests landing in between would append past the
		// cap and the whole batch would bounce off the shard as a 400 —
		// then run the fan-out on this request's goroutine.
		delete(co.pending, weighting)
		runNow = b
	}
	co.mu.Unlock()
	if runFirst != nil {
		runFirst.timer.Stop()
		co.run(runFirst)
	}
	if runNow != nil {
		runNow.timer.Stop()
		co.run(runNow)
	}
	select {
	case rep := <-ch:
		return rep
	case <-ctx.Done():
		return coalesceReply{fe: &replyError{status: http.StatusServiceUnavailable,
			msg: "request canceled while waiting on a coalesced fan-out"}}
	}
}

// flush is the window-timer path: claim b if it is still pending (the
// batch-full path may have claimed it first) and run its fan-out.
func (co *coalescer) flush(b *coalesceBatch) {
	co.mu.Lock()
	if co.pending[b.weighting] != b {
		co.mu.Unlock()
		return
	}
	delete(co.pending, b.weighting)
	co.mu.Unlock()
	b.timer.Stop()
	co.run(b)
}

// run executes a claimed batch's fan-out and de-multiplexes the merged
// rows to the waiters. The caller must have removed b from the pending
// map: exactly one of the timer and the batch-full path gets here.
func (co *coalescer) run(b *coalesceBatch) {
	g := co.g
	g.coalesceBatches.Add(1)
	g.coalesceRequests.Add(int64(len(b.waiters)))
	// The shard-bound trace is every member's id, comma-joined: one
	// internal call serves all of them, and the shard's access log
	// should name each (comma is in the request-id charset, so the
	// joined id round-trips the shard's trace middleware intact).
	trace := b.waiters[0].trace
	if len(b.waiters) > 1 {
		ids := make([]string, len(b.waiters))
		for i, wt := range b.waiters {
			ids[i] = wt.trace
		}
		trace = strings.Join(ids, ",")
	}
	fanStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ShardTimeout)
	defer cancel()
	merged, fe := g.predictFanout(ctx, b.items, b.weighting, trace)
	if fe != nil {
		for _, wt := range b.waiters {
			wt.ch <- coalesceReply{wait: fanStart.Sub(wt.enq), fe: fe}
		}
		return
	}
	for _, wt := range b.waiters {
		rep := coalesceReply{
			vecs:     make([]*[]float64, wt.n),
			known:    make([]bool, wt.n),
			wait:     fanStart.Sub(wt.enq),
			fanStart: merged.fanStart,
			fanout:   merged.fanout,
			merge:    merged.merge,
			legs:     merged.legs,
			nlegs:    merged.nlegs,
			members:  len(b.waiters),
		}
		for j := 0; j < wt.n; j++ {
			vp := g.scratch.Get()
			copy(*vp, merged.row(wt.off+j))
			rep.vecs[j] = vp
			rep.known[j] = merged.known[wt.off+j]
		}
		wt.ch <- rep
	}
	g.putMerged(merged)
}
