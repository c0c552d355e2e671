package cluster

import (
	"context"
	"net/http"
	"slices"

	"viewstags/internal/server"
)

// This file is the row cache's fold follower. A forward move of a shard's
// version retires every row held from it at once; a refresh pass re-reads
// them in bulk off the request path — the same rows request — instead
// of one miss at a time. It is just another fetcher: usable decides per
// request as before, a request that beats the pass fetches for itself,
// and a pass makes rows appear earlier, never usable.

// startRefresh begins a pass for the shard: one per slot, none once closed.
func (g *Gateway) startRefresh(tp *topology, shard int) {
	g.refreshMu.Lock()
	defer g.refreshMu.Unlock()
	if s := tp.shards[shard]; !s.refreshing && !g.closed.Load() {
		s.refreshing = true
		g.refreshes++
		go g.refreshPass(tp, shard)
	}
}

// refreshPass is rounds: each re-reads what is held from the shard under
// a version older than the one tracked now — MaxBatch tags a frame, one in
// flight. It ends when a round ends at the version it began from or had to
// stop, or after maxEpochMoves follow-ups (a request's rule: a shard whose
// every reply moves its version cannot spin it) — decided under
// refreshMu, as markOK's next call is: no move is lost.
func (g *Gateway) refreshPass(tp *topology, shard int) {
	s := tp.shards[shard]
	for moves, more := 0, true; more; moves++ {
		cur := s.version()
		stale, dropped := tp.rows.stale(shard, cur)
		g.refreshDropped.Add(int64(dropped))
		ok := true
		for n := 0; ok && len(stale) > 0; stale = stale[n:] {
			n = min(len(stale), g.cfg.MaxBatch)
			ok = g.refreshFrame(tp, shard, stale[:n])
		}
		g.refreshMu.Lock()
		if more = ok && moves < maxEpochMoves && s.version().Compare(cur) != 0; !more {
			s.refreshing = false
			g.refreshes--
			g.refreshIdle.Broadcast()
		}
		g.refreshMu.Unlock()
	}
}

// WaitRowRefresh returns once no refresh pass is running; tests and
// benchmarks call it after an observed fold, before they count legs.
func (g *Gateway) WaitRowRefresh() {
	g.refreshMu.Lock()
	for g.refreshes > 0 {
		g.refreshIdle.Wait()
	}
	g.refreshMu.Unlock()
}

// refreshFrame re-reads one frame of rows, under the request gate like any
// fan-out. False stops the pass: the topology is no longer the gateway's,
// the shard left read rotation, the reply was older than the version
// tracked by the time it arrived (takeRows published nothing) or the
// frame failed — a transport error counts toward the shard's health like
// any leg's, a shed or other non-200 does not; nothing is retried,
// requests fetch what stays stale. A tag is asked only if the ring, under
// the shards out of rotation now, gives it to this shard — the replica a
// request would ask: a row taken while the first owner was out is skipped
// once that owner is back.
func (g *Gateway) refreshFrame(tp *topology, shard int, ask []string) bool {
	g.gate.RLock()
	defer g.gate.RUnlock()
	s := tp.shards[shard]
	if g.topo.Load() != tp || s.down.Load() || s.syncing.Load() {
		return false
	}
	exclude := tp.excludedShards(nil)
	tags := slices.DeleteFunc(ask, func(tag string) bool { return tp.ring.Assign(tag, exclude) != shard })
	if len(tags) == 0 {
		return true
	}
	body := server.AppendRowsRequest(make([]byte, 0, 16*len(tags)), tags)
	rep := g.postShard(context.Background(), tp, shard, legRefresh, body, server.WireContentType, "")
	s.refreshLegs.Add(1)
	if rep.err != nil || rep.status != http.StatusOK {
		return false
	}
	pp := g.partialsPool.Get().(*server.PredictPartials)
	defer g.partialsPool.Put(pp)
	if _, fe := g.takeRows(tp, shard, tags, rep.body, pp); fe != nil || pp.Version.Compare(s.version()) < 0 {
		return false
	}
	g.refreshedRows.Add(int64(len(tags)))
	return true
}
