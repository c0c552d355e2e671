// Package ring is the tier's placement: the consistent-hash ring that
// partitions the tag vocabulary over n shards with R copies per tag.
// Every process that takes part — the gateway, each shard — builds it
// from (shards, replicas) alone, so they agree on every tag's owners
// without coordination. The gateway's read routing and ingest split, and
// a shard's slice transfers, are policies over the one ring.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per shard. 128 points per shard
// keeps the tag-ownership imbalance across shards within a few percent
// while the ring stays small enough to rebuild at startup in
// microseconds.
const vnodes = 128

// Ring is the shared consistent-hash partition of the tag space over n
// shards. Gateways and shards build it independently from (shards,
// replicas) alone — the hash is a fixed function, never seeded — so any
// two processes configured with the same shard count agree on every
// tag's owner without coordination. Immutable after construction and
// safe for concurrent use.
type Ring struct {
	shards   int
	replicas int
	points   []point // sorted by hash
	sig      string  // Signature, computed once
}

// point is one virtual node: a position on the hash circle owned by a
// shard.
type point struct {
	hash  uint64
	shard int
}

// MaxShards bounds a tier: a gateway's cached row names its shard in 16
// bits, which keeps the row in one cache line.
const MaxShards = 1 << 16

// New builds the ring for n shards with R-way replica placement: every
// tag is owned by the R distinct shards whose virtual nodes follow its
// hash clockwise. replicas must be in [1, shards] — more copies than
// shards would force two copies onto one node, which buys nothing.
func New(shards, replicas int) (*Ring, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("ring: needs 1 to %d shards, got %d", MaxShards, shards)
	}
	if replicas < 1 || replicas > shards {
		return nil, fmt.Errorf("ring: replicas must be in [1, %d shards], got %d", shards, replicas)
	}
	r := &Ring{shards: shards, replicas: replicas, points: make([]point, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:  hash64(fmt.Sprintf("shard-%d-vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	r.sig = r.signature()
	return r, nil
}

// hash64 is the ring's fixed hash: FNV-1a finished with a splitmix64
// avalanche. FNV is deterministic across processes and Go versions
// (maphash's per-process seed would break the shared-ring contract),
// but its raw output clusters on short, similar keys — exactly what
// vnode labels and tag names are — so the finalizer spreads the points
// evenly around the circle.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shards returns the shard count the ring partitions over.
func (r *Ring) Shards() int { return r.shards }

// Replicas returns the copies-per-tag count the ring places.
func (r *Ring) Replicas() int { return r.replicas }

// Owner returns the shard index in [0, shards) that owns the tag:
// the first virtual node at or clockwise of the tag's hash. Under
// replication this is the preferred (first) replica.
func (r *Ring) Owner(tag string) int {
	h := hash64(tag)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard
}

// Owners appends the tag's replica set to dst and returns it: the
// Replicas() distinct shards whose virtual nodes follow the tag's hash
// clockwise, preferred replica first. The walk order — not a random
// choice — is what makes the set identical on every process that built
// the same ring.
func (r *Ring) Owners(tag string, dst []int) []int {
	h := hash64(tag)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.ownersFrom(i, dst)
}

// ownersFrom collects the first Replicas() distinct shards clockwise of
// point index i (wrapping), appending to dst.
func (r *Ring) ownersFrom(i int, dst []int) []int {
	for n := 0; n < len(r.points) && len(dst) < r.replicas; n++ {
		s := r.points[(i+n)%len(r.points)].shard
		seen := false
		for _, d := range dst {
			if d == s {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, s)
		}
	}
	return dst
}

// Assign resolves which replica serves the tag when the shards in
// exclude are out of rotation: the first owner not excluded, or -1 when
// every replica is excluded. The gateway picks each read's replica with
// it, and a transfer source whether it exports a tag, so exactly one live
// replica supplies each tag.
func (r *Ring) Assign(tag string, exclude []int) int {
	h := hash64(tag)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	found := 0
	var owners [8]int
	dst := owners[:0]
	for n := 0; n < len(r.points) && found < r.replicas; n++ {
		s := r.points[(i+n)%len(r.points)].shard
		seen := false
		for _, d := range dst {
			if d == s {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		dst = append(dst, s)
		found++
		excluded := false
		for _, e := range exclude {
			if e == s {
				excluded = true
				break
			}
		}
		if !excluded {
			return s
		}
	}
	return -1
}

// Owns reports whether shard is one of the tag's Replicas() owners.
func (r *Ring) Owns(tag string, shard int) bool {
	var owners [8]int
	for _, o := range r.Owners(tag, owners[:0]) {
		if o == shard {
			return true
		}
	}
	return false
}

// Covered reports whether every slice of the tag space keeps at least
// one owner outside excluded — the per-slice readiness question. A
// tag's owner set is fully determined by which arc of the ring its hash
// lands on, so checking every arc (every point index as a walk start)
// is exact, not sampled.
func (r *Ring) Covered(excluded []int) bool {
	if len(excluded) == 0 {
		return true
	}
	out := make([]bool, r.shards)
	n := 0
	for _, e := range excluded {
		if e >= 0 && e < r.shards && !out[e] {
			out[e] = true
			n++
		}
	}
	if n == 0 {
		return true
	}
	if n >= r.shards {
		return false
	}
	var owners [8]int
	for i := range r.points {
		alive := false
		for _, o := range r.ownersFrom(i, owners[:0]) {
			if !out[o] {
				alive = true
				break
			}
		}
		if !alive {
			return false
		}
	}
	return true
}

// Signature fingerprints the ring's vnode table as a hex string (the
// form /internal/meta carries). A gateway compares its signature
// against each shard's so a shard built with a different shard count —
// which would silently misroute tags — is caught at sync time instead
// of corrupting merges.
func (r *Ring) Signature() string { return r.sig }

func (r *Ring) signature() string {
	// FNV-1a over the point stream, mixing each vnode's hash and owner.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	sig := uint64(offset64)
	for _, p := range r.points {
		sig = (sig ^ p.hash) * prime64
		sig = (sig ^ uint64(p.shard)) * prime64
	}
	// Replication changes placement, so it must change the signature —
	// but only when actually on, so every R=1 signature ever recorded
	// (logs, baselines, mixed-version clusters) stays byte-identical.
	if r.replicas > 1 {
		sig = (sig ^ uint64(r.replicas)) * prime64
	}
	return fmt.Sprintf("%016x", sig)
}
