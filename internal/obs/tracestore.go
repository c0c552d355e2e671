package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceStore is the process's tail-sampled trace ring: a fixed-size,
// core-sharded ring buffer (the same consumer-sharding philosophy as
// profilestore's VecPool — many writers, cheap locks, bounded memory)
// that decides per finished trace whether it is worth keeping:
//
//   - every errored (status >= 400) or shed trace is retained;
//   - the slowest-K per route per window are retained (per ring shard,
//     so the union over shards retains at least the global top K);
//   - a small uniform sample (1 in uniformEvery) of the rest, so the
//     ring always shows what "normal" looked like next to the tail.
//
// Everything else goes straight back to the trace pool. Retained
// traces are recycled on ring eviction, so the steady state allocates
// nothing. No external deps, same philosophy as the hand-rolled
// Prometheus writer: observability must not pull weight into the
// serving path.
type TraceStore struct {
	shards []storeShard
	mask   uint64
	seq    atomic.Uint64 // uniform-sample counter
}

const (
	// slowK is how many slowest traces per route per window each ring
	// shard tracks.
	slowK = 4
	// slowWindow bounds how long a past spike keeps the "slow" bar
	// high: the per-route top-K resets each window.
	slowWindow = 10 * time.Second
	// uniformEvery is the uniform-sample keep rate for unremarkable
	// traces.
	uniformEvery = 128
	// defaultRingPerShard is the per-shard ring capacity when
	// NewTraceStore is given no size.
	defaultRingPerShard = 128
)

type slowTracker struct {
	windowStart int64 // unix ns
	durs        [slowK]int64
}

type storeShard struct {
	mu   sync.Mutex
	ring []*Trace
	next int
	n    int
	slow map[string]*slowTracker
	_    [32]byte // keep neighboring shards off one cache line
}

// NewTraceStore builds a store with perShard ring slots on each of a
// power-of-two number of shards sized from GOMAXPROCS (capped at 8:
// past that the rings cost memory, not contention). perShard <= 0
// takes the default.
func NewTraceStore(perShard int) *TraceStore {
	if perShard <= 0 {
		perShard = defaultRingPerShard
	}
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 8 {
		n <<= 1
	}
	s := &TraceStore{shards: make([]storeShard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i].ring = make([]*Trace, perShard)
		s.shards[i].slow = make(map[string]*slowTracker)
	}
	return s
}

// shardFor spreads traces over ring shards by a cheap id hash (FNV-1a)
// so concurrent writers rarely meet on one lock.
func (s *TraceStore) shardFor(id string) *storeShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return &s.shards[h&s.mask]
}

// Offer hands a finished trace to the store. The store either retains
// it (recycling whatever ring slot it evicts) or returns it to the
// trace pool; the caller must not touch t afterward. Returns whether
// the trace was retained — callers only use this in tests.
func (s *TraceStore) Offer(t *Trace) bool {
	if s == nil || t == nil {
		PutTrace(t)
		return false
	}
	keep := t.status >= 400 || t.shed
	uniform := !keep && s.seq.Add(1)%uniformEvery == 0
	sh := s.shardFor(t.id)
	sh.mu.Lock()
	if !keep && !uniform {
		keep = sh.offerSlowLocked(t.route, t.start.UnixNano(), t.durNs)
	}
	if keep || uniform {
		if old := sh.ring[sh.next]; old != nil {
			PutTrace(old)
		} else {
			sh.n++
		}
		sh.ring[sh.next] = t
		sh.next = (sh.next + 1) % len(sh.ring)
		sh.mu.Unlock()
		return true
	}
	sh.mu.Unlock()
	PutTrace(t)
	return false
}

// offerSlowLocked maintains the per-route slowest-K window and reports
// whether durNs makes the cut. Caller holds sh.mu.
func (sh *storeShard) offerSlowLocked(route string, nowNs, durNs int64) bool {
	st := sh.slow[route]
	if st == nil {
		st = &slowTracker{windowStart: nowNs}
		sh.slow[route] = st
	}
	if nowNs-st.windowStart > int64(slowWindow) {
		st.windowStart = nowNs
		st.durs = [slowK]int64{}
	}
	// Replace the smallest tracked duration if this one beats it; a
	// zero slot (unfilled window) always loses, so the first K traces
	// of a window are all retained.
	min := 0
	for i := 1; i < slowK; i++ {
		if st.durs[i] < st.durs[min] {
			min = i
		}
	}
	if durNs > st.durs[min] {
		st.durs[min] = durNs
		return true
	}
	return false
}

// TraceFilter selects traces for List. Zero values match everything.
type TraceFilter struct {
	Route   string        // exact route match
	MinDur  time.Duration // keep traces at least this slow
	Status  string        // "", "ok", "error" (>=400) or "shed"
	Limit   int           // max results (0 = defaultListLimit)
	SinceNs int64         // keep traces starting at/after this unix ns
}

const defaultListLimit = 64

func (f *TraceFilter) match(t *Trace) bool {
	if f.Route != "" && t.route != f.Route {
		return false
	}
	if t.durNs < int64(f.MinDur) {
		return false
	}
	if f.SinceNs != 0 && t.start.UnixNano() < f.SinceNs {
		return false
	}
	switch f.Status {
	case "", "all":
	case "ok":
		if t.status >= 400 || t.shed {
			return false
		}
	case "error":
		if t.status < 400 {
			return false
		}
	case "shed":
		if !t.shed {
			return false
		}
	}
	return true
}

// List returns matching retained traces, slowest first, deep-copied so
// callers can read them after the ring moves on.
func (s *TraceStore) List(f TraceFilter) []TraceView {
	if s == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = defaultListLimit
	}
	var out []TraceView
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, t := range sh.ring {
			if t != nil && f.match(t) {
				out = append(out, t.view())
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].DurNs > out[b].DurNs })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Get looks up one retained trace by request id, in the one store shard
// the id hashes to.
func (s *TraceStore) Get(id string) (TraceView, bool) {
	if s == nil {
		return TraceView{}, false
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, t := range sh.ring {
		if t != nil && t.idMatches(id) {
			return t.view(), true
		}
	}
	return TraceView{}, false
}

// Dump deep-copies every retained trace, newest first — the flight
// recorder's black box.
func (s *TraceStore) Dump() []TraceView {
	if s == nil {
		return nil
	}
	var out []TraceView
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, t := range sh.ring {
			if t != nil {
				out = append(out, t.view())
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].StartNs > out[b].StartNs })
	return out
}

// Len reports how many traces are currently retained.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}
