package profilestore

import (
	"fmt"
	"sort"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
)

// TagDelta is one tag's accumulated view-event mass — the unit the
// ingest accumulator drains and Rebuild folds. Views is the per-country
// view mass to add (length = world size), in multiples of
// tagviews.ViewUnit; Videos counts newly uploaded videos carrying the
// tag, the per-tag document-frequency increment.
type TagDelta struct {
	Name   string
	Views  []float64
	Videos int
}

// Rebuild folds view-event deltas into base copy-on-write and returns a
// fresh immutable Snapshot. Each delta is resolved by name, with one
// lookup in base: touched tags get base's sums plus the deltas — exact,
// so the bits do not depend on where folds were cut — and recomputed
// derived fields, brand-new tags are interned with ids appended after
// base's (sorted by name, so a given base+deltas pair rebuilds
// deterministically), and every untouched tag's sums are shared with
// base — no re-aggregation, no slab copy.
// newRecords is the training-corpus increment (freshly uploaded videos),
// the IDF numerator delta.
//
// The cost is O(touched·C) vector math plus O(tags) for copying the
// profile table and cloning each name-index shard map a new
// tag lands in, independent of how many views the untouched vocabulary
// aggregates. No volume ranking is kept: TopProfiles selects one per
// call. Measured on 2 shared cores, BenchmarkIngestFold's hot-100 fold
// takes ≈0.67 ms at 12 000 videos and ≈33 ms at 691 000. A standalone
// node at 691 000 folding ≈840 touched tags, a few hundred of them new,
// reads 133–169 ms, most of it the shard-map clones (ROADMAP item 17).
//
// Base is not modified; readers of base remain valid forever. Like
// Build, the result is safe for unsynchronized concurrent use.
func Rebuild(base *Snapshot, deltas []TagDelta, newRecords int) (*Snapshot, error) {
	if base == nil {
		return nil, fmt.Errorf("profilestore: nil base snapshot")
	}
	if newRecords < 0 {
		return nil, fmt.Errorf("profilestore: negative record delta %d", newRecords)
	}
	next := &Snapshot{
		world:    base.world,
		nC:       base.nC,
		records:  base.records + newRecords,
		shards:   base.shards, // value copy: untouched shards share maps
		profiles: append([]Profile(nil), base.profiles...),
		prior:    base.prior,
		seed:     base.seed,
	}

	// Apply deltas: known tags accumulate into copies of their sums;
	// unknown tags collect for interning, duplicates merged by name.
	touched := make(map[int32]bool)
	var pending []Profile
	pendingIdx := make(map[string]int)
	for i := range deltas {
		d := &deltas[i]
		if d.Name == "" {
			return nil, fmt.Errorf("profilestore: delta %d has no tag name", i)
		}
		if len(d.Views) != base.nC {
			return nil, fmt.Errorf("profilestore: delta %q has %d countries, snapshot has %d", d.Name, len(d.Views), base.nC)
		}
		if d.Videos < 0 {
			return nil, fmt.Errorf("profilestore: delta %q has negative videos", d.Name)
		}
		var p *Profile
		if id, ok := base.Lookup(d.Name); ok {
			p = &next.profiles[id]
			if !touched[id] {
				touched[id] = true
				p.Views = append([]float64(nil), p.Views...)
			}
		} else if j, seen := pendingIdx[d.Name]; seen {
			p = &pending[j]
		} else {
			pendingIdx[d.Name] = len(pending)
			pending = append(pending, Profile{Name: d.Name, Views: make([]float64, base.nC)})
			p = &pending[len(pending)-1]
		}
		for c, x := range d.Views {
			p.Views[c] += x
		}
		p.Videos += d.Videos
	}

	// Finalize touched tags: the fields Build derives.
	for id := range touched {
		deriveProfile(&next.profiles[id])
	}

	// Intern new tags with ids after base's, in name order so the id
	// assignment is a pure function of (base, deltas).
	sort.Slice(pending, func(a, b int) bool { return pending[a].Name < pending[b].Name })
	cloned := make(map[int]bool)
	for i := range pending {
		p := &pending[i]
		deriveProfile(p)
		id := int32(len(next.profiles))
		next.profiles = append(next.profiles, *p)
		h := next.shardOf(p.Name)
		if !cloned[h] {
			// Copy-on-write of the one shard map gaining entries; the
			// other 15 keep aliasing base's maps.
			m := make(map[string]int32, len(next.shards[h].ids)+len(pending))
			for k, v := range next.shards[h].ids {
				m[k] = v
			}
			next.shards[h].ids = m
			cloned[h] = true
		}
		next.shards[h].ids[p.Name] = id
	}
	return next, nil
}

// deriveProfile fills p's derived fields from its sums: their exact total
// and the concentration measures. It is the one place a profile is
// derived from sums. Zero-mass sums have TopCountry -1.
func deriveProfile(p *Profile) {
	sums := p.Views
	p.TotalViews = dist.Sum(sums)
	p.Spread = dist.Classify(sums)
	top := dist.ArgMax(sums)
	p.TopCountry, p.TopShare = geo.CountryID(top), 0
	if top >= 0 {
		p.TopShare = sums[top] / p.TotalViews
	}
}
