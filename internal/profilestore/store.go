// Package profilestore is the serving-layer representation of the tag
// geographic profiles that internal/tagviews derives offline: an
// immutable, sharded, read-optimized in-memory store the HTTP placement
// service queries on its hot path.
//
// Layout: tag names are interned to dense int32 ids at build time, each
// id the index of the tag's Profile in one table. A Profile carries the
// tag's exact per-country view sums (Eq. 3; tagviews.ViewUnit),
// normalized only in a predict's weight (Mix), so a predict touches the
// shard's name index and one profile per tag and allocates nothing.
// Build backs every profile's sums with one contiguous slab (id*C ..
// id*C+C); a daemon's boot (BuildAggregate) adopts the per-tag sums it
// aggregated instead, as every fold does for the tags it touches. Lookups
// hash into one of a power-of-two number of shards, which keeps
// individual maps small and lets the build populate them in parallel.
//
// The store itself is a single atomic pointer to an immutable Snapshot.
// Readers never lock: they load the pointer once per request and work
// against that frozen view, while a writer installs a fresh Snapshot
// and swaps it in (see Store.Swap) — the hot path for catalog refreshes
// without draining traffic. Fresh snapshots come from two paths: Build
// re-aggregates a full tagviews.Analysis (batch reload), while Rebuild
// folds streamed view-event deltas into an existing snapshot
// copy-on-write, sharing every untouched tag's sums with its base (the
// ingestion path; see Rebuild).
package profilestore

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// numShards must stay a power of two so the hash→shard map is a mask.
const numShards = 16

// Profile is one tag's serving-time record: its name, its per-country
// view sums, and the measures derived from them that the API reports
// alongside predictions. Its id is its index in the snapshot's table.
type Profile struct {
	Name   string
	Videos int // videos carrying the tag in the training corpus
	// Views is the tag's per-country view sums, one per country. It may
	// be shared with other snapshots; never modify it.
	Views      []float64
	TotalViews float64 // Σ of Views, exact: the normalizer and the by-views weight
	Spread     dist.Spread
	TopCountry geo.CountryID
	TopShare   float64
}

// shard is one slice of the name→id index.
type shard struct {
	ids map[string]int32
}

// Snapshot is an immutable build of the store. All methods are safe for
// unsynchronized concurrent use.
type Snapshot struct {
	world   *geo.World
	nC      int
	records int // training-corpus size, the IDF numerator
	shards  [numShards]shard
	// profiles[id] is tag id's record. Its sums are a piece of one slab
	// after Build, the aggregate's own slice after BuildAggregate; Rebuild
	// gives only the touched tags fresh sums and shares the rest with its
	// base snapshot.
	profiles []Profile
	prior    []float64 // normalized traffic prior, the unknown-tag fallback
	seed     maphash.Seed
}

// Build constructs a Snapshot from a tag analysis. Profile ids are
// assigned in sorted-name order, so two builds over the same analysis
// are identical.
func Build(an *tagviews.Analysis) (*Snapshot, error) {
	return BuildOwned(an, nil)
}

// BuildOwned constructs a Snapshot over the subset of the analysis's
// vocabulary the owns filter admits — the partial-vocabulary build a
// cluster shard runs (internal/cluster assigns each tag to exactly one
// shard). A nil filter keeps everything (= Build).
//
// Only the tag table is partitioned: Records (the IDF numerator) and
// the traffic prior stay global, so per-shard IDF weights and the
// unknown-tag fallback are identical on every shard, and a gateway that
// fetches each tag's Row and combines the rows with Mix gets the
// single-node answer exactly. Ids are interned per shard (dense over the
// owned names, in sorted order), so a given (analysis, filter) pair
// builds deterministically. The analysis is only read — evaluators go on using
// it — so the sums are copied into one fresh contiguous slab.
func BuildOwned(an *tagviews.Analysis, owns func(name string) bool) (*Snapshot, error) {
	if an == nil {
		return nil, fmt.Errorf("profilestore: nil analysis")
	}
	return build(&an.Aggregate, owns, false), nil
}

// BuildAggregate is Build for a daemon whose boot aggregated its slice
// without keeping the corpus (tagviews.Aggregator), whose pass admitted
// only the tags it owns, and it takes ownership of the aggregate: each
// tag's sums become its profile's — bit for bit what BuildOwned copies
// into its slab — and the aggregate is released, left with no tags. The
// boot ends holding one copy of what it serves.
func BuildAggregate(an *tagviews.Aggregate) (*Snapshot, error) {
	if an == nil {
		return nil, fmt.Errorf("profilestore: nil aggregate")
	}
	return build(an, nil, true), nil
}

// build fills a SnapshotData from the aggregate's raw sums, in sorted-name
// order, and adopts it. With adopt the sums themselves become the
// profiles' and the aggregate is released; without, they are copied into
// a fresh slab.
func build(an *tagviews.Aggregate, owns func(name string) bool, adopt bool) *Snapshot {
	names := an.TagNames()
	if owns != nil {
		kept := names[:0] // TagNames returns a fresh slice; filter in place
		for _, n := range names {
			if owns(n) {
				kept = append(kept, n)
			}
		}
		names = kept
	}
	nC := an.World.N()
	data := SnapshotData{
		Records:  an.N(),
		Prior:    dist.Normalize(an.Pyt),
		Profiles: make([]Profile, len(names)),
	}
	var slab []float64
	if !adopt {
		slab = make([]float64, len(names)*nC)
	}
	for i, name := range names {
		sums, _ := an.Sums(name) // names come from the aggregate
		vec := sums.Views
		if !adopt {
			vec = slab[i*nC : (i+1)*nC : (i+1)*nC]
			copy(vec, sums.Views)
		}
		data.Profiles[i] = Profile{Name: name, Videos: sums.Videos, Views: vec}
		deriveProfile(&data.Profiles[i])
	}
	if adopt {
		an.Release()
	}
	return newSnapshot(data, an.World)
}

// newSnapshot adopts data — already checked against world, or built for
// it — as a snapshot's storage and derives its lookup structures.
func newSnapshot(data SnapshotData, world *geo.World) *Snapshot {
	s := &Snapshot{
		world:    world,
		nC:       world.N(),
		records:  data.Records,
		profiles: data.Profiles,
		prior:    data.Prior,
		seed:     maphash.MakeSeed(),
	}
	s.buildIndexes()
	return s
}

// buildIndexes derives the one lookup structure a snapshot carries
// beyond its raw profile table: the sharded name→id index. Every
// constructor reaches it through newSnapshot, so a snapshot restored from
// disk indexes identically to the one that was saved. The volume ranking
// is not kept: TopProfiles selects it per call.
func (s *Snapshot) buildIndexes() {
	// Partition ids by shard, then build each shard's map in parallel —
	// each goroutine writes only its own map.
	byShard := make([][]int32, numShards)
	for i := range s.profiles {
		h := s.shardOf(s.profiles[i].Name)
		byShard[h] = append(byShard[h], int32(i))
	}
	var sg sync.WaitGroup
	for h := 0; h < numShards; h++ {
		sg.Add(1)
		go func(h int) {
			defer sg.Done()
			m := make(map[string]int32, len(byShard[h]))
			for _, id := range byShard[h] {
				m[s.profiles[id].Name] = id
			}
			s.shards[h].ids = m
		}(h)
	}
	sg.Wait()
}

func (s *Snapshot) shardOf(name string) int {
	return int(maphash.String(s.seed, name) & (numShards - 1))
}

// Lookup interns a tag name to its profile id. The boolean reports
// whether the tag exists in this snapshot.
func (s *Snapshot) Lookup(name string) (int32, bool) {
	id, ok := s.shards[s.shardOf(name)].ids[name]
	return id, ok
}

// Prior returns the snapshot's normalized traffic prior (the fallback
// prediction). The slice is shared; do not modify.
func (s *Snapshot) Prior() []float64 { return s.prior }

// NumTags returns the number of interned tags.
func (s *Snapshot) NumTags() int { return len(s.profiles) }

// Records returns the training-corpus record count.
func (s *Snapshot) Records() int { return s.records }

// World returns the country table the snapshot is indexed by.
func (s *Snapshot) World() *geo.World { return s.world }

// TopProfiles returns the k highest-volume profiles, descending by
// TotalViews with name tiebreak — the serving-side analogue of
// Analysis.TopTags, used by the tag-listing endpoint. It selects them per
// call with synth.TopTags, O(n log k) over the snapshot's n tags, so a
// fold never re-ranks the vocabulary; k is clamped to [0, n].
func (s *Snapshot) TopProfiles(k int) []*Profile {
	top := synth.TopTags(len(s.profiles), k,
		func(i int) float64 { return s.profiles[i].TotalViews },
		func(i int) string { return s.profiles[i].Name })
	out := make([]*Profile, len(top))
	for j, i := range top {
		out[j] = &s.profiles[i]
	}
	return out
}

// Store is the atomically swappable handle the server holds: readers
// call Load once per request and never block; Swap installs a freshly
// built Snapshot for subsequent requests (hot reload).
type Store struct {
	snap atomic.Pointer[Snapshot]
}

// NewStore returns a store serving the given snapshot.
func NewStore(s *Snapshot) (*Store, error) {
	if s == nil {
		return nil, fmt.Errorf("profilestore: nil snapshot")
	}
	st := &Store{}
	st.snap.Store(s)
	return st, nil
}

// Load returns the current snapshot. The result stays valid (and
// immutable) even after a concurrent Swap.
func (st *Store) Load() *Snapshot { return st.snap.Load() }

// Swap atomically installs a new snapshot and returns the previous one.
// It returns an error when the replacement's country table differs from
// the current snapshot's — consumers cache world-derived state
// (distance matrices, traffic orders), so a reload must not change
// country identity or ordering under in-flight readers' feet. Two
// distinct *geo.World values with the same table (e.g. two pipeline
// runs over the default world) are interchangeable.
func (st *Store) Swap(s *Snapshot) (*Snapshot, error) {
	if s == nil {
		return nil, fmt.Errorf("profilestore: nil snapshot")
	}
	if cur := st.snap.Load(); cur != nil && !sameWorld(cur.world, s.world) {
		return nil, fmt.Errorf("profilestore: snapshot world differs from the one the store serves")
	}
	return st.snap.Swap(s), nil
}

// sameWorld reports whether two worlds have identical country tables
// (same codes in the same order), i.e. ids and vectors are compatible.
func sameWorld(a, b *geo.World) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.N() != b.N() {
		return false
	}
	ac, bc := a.Codes(), b.Codes()
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}
