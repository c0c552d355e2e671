package obs

import (
	"sync"
	"time"
)

// Exemplars links a histogram's slow buckets back to fetchable traces:
// per bucket, the request id of the most recent observation that
// landed there. Recording is allocation-free and best-effort — the id
// bytes are copied into a fixed slot guarded by a TryLock, so a
// contended slot skips the update rather than queueing behind it (an
// exemplar is a pointer into the tail, not an accounting record).
// Readers surface only the topmost (slowest) occupied buckets, which
// is where an exemplar buys anything: a p99 spike on /metrics becomes
// a /debug/traces/{id} fetch in one hop.
type Exemplars struct {
	slots [numBuckets + 1]exemplarSlot
}

// exemplarIDCap is the slot's id capacity: any id the middleware
// honours or mints fits whole, so a stored exemplar is always fetchable.
const exemplarIDCap = MaxRequestIDLen

type exemplarSlot struct {
	mu sync.Mutex
	id [exemplarIDCap]byte
	n  int8
	ns int64 // observed latency
	at int64 // unix ns of the observation
}

// Observe records id as the exemplar for the bucket d lands in.
// Allocation-free; safe for any concurrency; loses races on purpose.
func (e *Exemplars) Observe(d time.Duration, id string, at time.Time) {
	if e == nil || id == "" {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s := &e.slots[bucketIndex(ns)]
	if !s.mu.TryLock() {
		return
	}
	s.n = int8(copy(s.id[:], id))
	s.ns = ns
	s.at = at.UnixNano()
	s.mu.Unlock()
}

// BucketExemplar is one surfaced exemplar: the bucket it annotates
// (index into the shared edge table; numBuckets = +Inf) and the
// observation it points at.
type BucketExemplar struct {
	Bucket    int     `json:"-"`
	LE        string  `json:"le"` // the bucket's upper edge, as exposed
	RequestID string  `json:"request_id"`
	Seconds   float64 `json:"seconds"`
	AtUnixNs  int64   `json:"at_unix_ns"`
}

// Top returns up to k exemplars from the highest occupied buckets,
// slowest bucket first. Allocates; scrape-path only.
func (e *Exemplars) Top(k int) []BucketExemplar {
	if e == nil || k <= 0 {
		return nil
	}
	var out []BucketExemplar
	for i := numBuckets; i >= 0 && len(out) < k; i-- {
		s := &e.slots[i]
		s.mu.Lock()
		if s.n > 0 {
			le := "+Inf"
			if i < numBuckets {
				le = formatFloat(bucketEdges[i])
			}
			out = append(out, BucketExemplar{
				Bucket:    i,
				LE:        le,
				RequestID: string(s.id[:s.n]),
				Seconds:   float64(s.ns) / 1e9,
				AtUnixNs:  s.at,
			})
		}
		s.mu.Unlock()
	}
	return out
}
