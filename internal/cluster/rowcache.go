package cluster

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// This file is the gateway's per-tag row cache: what a shard answered
// for tag — profilestore.Snapshot.Row, which serves every weighting —
// kept with the shard state it was read from. predictFanout (fanout.go)
// combines an item's rows locally, so a request whose rows are all here
// and still valid makes no shard leg.
// The cache only stores; whether a row may be used is decided per
// request by shardView.usable, and one cache lives exactly as long as
// the topology it was filled under.

// rowCacheBytes bounds the cache's accounted size. A tag has one row,
// costing rowOverhead + len(tag) + 8·countries bytes, so at the synthetic
// world's 60 countries the bound holds ≈100k tags — eight times the
// benchmark catalog's 12 304-tag vocabulary (≈8 MB accounted) — and a
// 250-country table still keeps ≈30k, far more than the Zipf head that
// carries the hit ratio. DESIGN.md "Gateway row cache" has the sums.
const rowCacheBytes = 64 << 20

// rowCacheStripes splits the cache into independently locked maps so
// the hit path never takes a process-wide lock.
const rowCacheStripes = 64

// rowOverhead is the accounted fixed cost of one row: the tagRow
// struct, its map slot and the key's string header.
const rowOverhead = 128

// rowEvictProbe is how many entries one eviction inspects; see put.
const rowEvictProbe = 8

// rowIdleRefreshes is how many refreshes in a row (rowrefresh.go) re-read
// a row nobody asks for before one drops it (EXPERIMENTS.md "Row refresh").
const rowIdleRefreshes = 32

// tagRow is one cached row. Immutable once published apart
// from the second-chance bit. vec is nil for an absent row — the tag is
// unknown to its owner, or has no views — which is cached like any other
// answer: it stays true until the shard's epoch moves. Its counts, shard
// and generation are 32-bit so that it fills one cache line
// (TestTagRowFitsACacheLine); the wire refuses counts that do not fit.
type tagRow struct {
	vec     []float64   // its stored vector
	epoch   uint64      // the fold epoch the reply was labelled with
	views   float64     // the tag's view total
	gen     uint32      // that shard slot's generation when the fetch began
	shard   int32       // the shard that answered
	records uint32      // the answering snapshot's corpus size
	videos  uint32      // the videos carrying the tag
	used    atomic.Bool // asked for since it was published or last aged
	idle    uint8       // rows in a row replaced under this key unasked for
}

type rowStripe struct {
	mu    sync.RWMutex
	m     map[string]*tagRow
	bytes int
}

type rowCache struct {
	seed maphash.Seed
	// budget is each stripe's share of rowCacheBytes (a field so a test
	// can fill a small cache).
	budget  int
	n       atomic.Int64 // rows held, for viewstags_row_cache_rows
	stripes [rowCacheStripes]rowStripe
}

func newRowCache() *rowCache {
	c := &rowCache{seed: maphash.MakeSeed(), budget: rowCacheBytes / rowCacheStripes}
	for i := range c.stripes {
		c.stripes[i].m = make(map[string]*tagRow)
	}
	return c
}

func (c *rowCache) stripe(tag string) *rowStripe {
	return &c.stripes[maphash.String(c.seed, tag)%rowCacheStripes]
}

// get returns the row held for tag, or nil. The caller checks it against
// its view of the shard before using it.
func (c *rowCache) get(tag string) *tagRow {
	s := c.stripe(tag)
	s.mu.RLock()
	r := s.m[tag]
	s.mu.RUnlock()
	if r != nil && !r.used.Load() {
		r.used.Store(true)
	}
	return r
}

func rowCost(tag string, r *tagRow) int { return rowOverhead + len(tag) + 8*len(r.vec) }

// put publishes a row, replacing whatever was held for the tag — unless
// that is a later read of the same shard (higher generation, or higher
// epoch under it): fetches race, and the older reply must not undo the
// newer. A row replacing one nobody asked for carries its idle count on,
// one higher. tag must not be a substring of a request body: a map
// assignment stores the new key's pointer even when an equal key is held.
//
// Over budget, the stripe evicts by sampled second chance: it walks up
// to rowEvictProbe entries from wherever Go's randomised map iteration
// starts and drops the first one not used since it was last aged. Only
// when every entry it sampled is in use does it age them (clear the
// bit) and drop the last — so a scan of rows nobody asks for twice
// evicts itself, and the Zipf head, re-marked by every hit, stays.
func (c *rowCache) put(tag string, r *tagRow) {
	s := c.stripe(tag)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.m[tag]; old != nil {
		if old.shard == r.shard && (old.gen > r.gen || old.gen == r.gen && old.epoch > r.epoch) {
			return
		}
		if !old.used.Load() {
			r.idle = old.idle + 1
		}
		s.bytes -= rowCost(tag, old)
		c.n.Add(-1)
	}
	s.m[tag] = r
	s.bytes += rowCost(tag, r)
	c.n.Add(1)
	for s.bytes > c.budget && len(s.m) > 1 {
		var victim string
		var inUse [rowEvictProbe]*tagRow
		n := 0
		for k, v := range s.m {
			if k == tag {
				continue
			}
			victim = k
			if !v.used.Load() {
				n = 0
				break
			}
			inUse[n] = v
			if n++; n == rowEvictProbe {
				break
			}
		}
		for _, v := range inUse[:n] {
			v.used.Store(false)
		}
		s.bytes -= rowCost(victim, s.m[victim])
		delete(s.m, victim)
		c.n.Add(-1)
	}
}

// stale lists the tags of the rows held from shard under gen from before
// epoch — what an observed fold just retired — for a refresh pass to
// re-read, and counts the rows it dropped instead: idle through
// rowIdleRefreshes refreshes, so a scan leaves the cache rather than
// being re-read at every fold for as long as the budget lasts.
func (c *rowCache) stale(shard int, gen uint32, epoch uint64) (tags []string, dropped int) {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for tag, r := range s.m {
			switch {
			case int(r.shard) != shard || r.gen != gen || r.epoch >= epoch:
			case r.used.Load() || r.idle < rowIdleRefreshes:
				tags = append(tags, tag)
			default:
				s.bytes -= rowCost(tag, r)
				delete(s.m, tag)
				c.n.Add(-1)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return tags, dropped
}
