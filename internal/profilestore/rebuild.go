package profilestore

import (
	"fmt"
	"sort"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
)

// TagDelta is one tag's accumulated view-event mass — the unit the
// ingest accumulator drains and Rebuild folds. Views is the raw
// per-country view mass to add (length = world size); Total is the view
// total to add (normally Σ Views, carried separately so rounding in the
// accumulator cannot drift the IDF weights); Videos counts newly
// uploaded videos carrying the tag, the per-tag document-frequency
// increment.
type TagDelta struct {
	Name   string
	Views  []float64
	Total  float64
	Videos int

	// ID is an interning hint: the tag's profile id in the snapshot the
	// delta was accumulated against, or -1 when the tag was unknown
	// there. Rebuild validates the hint against its base and falls back
	// to a name lookup, so a stale hint (e.g. after a full batch reload
	// re-interned the vocabulary) degrades to a hash lookup, never to
	// corruption.
	ID int32
}

// Rebuild folds view-event deltas into base copy-on-write and returns a
// fresh immutable Snapshot: touched tags get freshly normalized vectors
// and recomputed concentration measures, brand-new tags are interned
// with ids appended after base's (sorted by name, so a given
// base+deltas pair rebuilds deterministically), and every untouched
// tag's vector is shared with base — no re-aggregation, no slab copy.
// newRecords is the training-corpus increment (freshly uploaded videos),
// the IDF numerator delta.
//
// The cost is O(touched·C) vector math plus O(tags) for copying the
// profile and vector tables and cloning each name-index shard map a new
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
		vecTab:   append([][]float64(nil), base.vecTab...),
		prior:    base.prior,
		seed:     base.seed,
	}

	// Apply deltas: known tags accumulate into raw (denormalized)
	// working vectors keyed by id; unknown tags collect for interning.
	raw := make(map[int32][]float64)
	var pending []TagDelta
	pendingIdx := make(map[string]int)
	for i := range deltas {
		d := &deltas[i]
		if d.Name == "" {
			return nil, fmt.Errorf("profilestore: delta %d has no tag name", i)
		}
		if len(d.Views) != base.nC {
			return nil, fmt.Errorf("profilestore: delta %q has %d countries, snapshot has %d", d.Name, len(d.Views), base.nC)
		}
		if d.Total < 0 || d.Videos < 0 {
			return nil, fmt.Errorf("profilestore: delta %q has negative mass", d.Name)
		}
		id := d.ID
		if id < 0 || int(id) >= len(base.profiles) || base.profiles[id].Name != d.Name {
			var ok bool
			if id, ok = base.Lookup(d.Name); !ok {
				// New tag: merge duplicate deltas by name, intern below.
				if j, seen := pendingIdx[d.Name]; seen {
					p := &pending[j]
					for c, x := range d.Views {
						p.Views[c] += x
					}
					p.Total += d.Total
					p.Videos += d.Videos
				} else {
					pendingIdx[d.Name] = len(pending)
					merged := *d
					merged.Views = append([]float64(nil), d.Views...)
					pending = append(pending, merged)
				}
				continue
			}
		}
		r := raw[id]
		if r == nil {
			// First touch: denormalize the base vector by the mass it
			// was normalized from (TotalViews, before this fold's
			// increments) so deltas add in view units.
			r = make([]float64, base.nC)
			if t := next.profiles[id].TotalViews; t > 0 {
				for c, x := range base.vecTab[id] {
					r[c] = x * t
				}
			}
			raw[id] = r
		}
		for c, x := range d.Views {
			r[c] += x
		}
		next.profiles[id].TotalViews += d.Total
		next.profiles[id].Videos += d.Videos
	}

	// Finalize touched tags: renormalize and recompute the derived
	// concentration measures, exactly the fields Build derives.
	for id, r := range raw {
		next.vecTab[id] = normalizeProfile(&next.profiles[id], make([]float64, len(r)), r)
	}

	// Intern new tags with ids after base's, in name order so the id
	// assignment is a pure function of (base, deltas).
	sort.Slice(pending, func(a, b int) bool { return pending[a].Name < pending[b].Name })
	cloned := make(map[int]bool)
	for i := range pending {
		d := &pending[i]
		id := int32(len(next.profiles))
		next.profiles = append(next.profiles, Profile{
			ID:         id,
			Name:       d.Name,
			Videos:     d.Videos,
			TotalViews: d.Total,
		})
		next.vecTab = append(next.vecTab, normalizeProfile(&next.profiles[id], make([]float64, len(d.Views)), d.Views))
		h := next.shardOf(d.Name)
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
		next.shards[h].ids[d.Name] = id
	}
	return next, nil
}

// normalizeProfile fills p's derived concentration fields from a raw
// view vector, writes the normalized field into vec — all zeros on entry,
// or rawViews itself to normalize in place — and returns vec. It is the
// one place a profile is derived from sums: the builds and Rebuild share
// it. A zero-mass vector degrades to the all-zero field with TopCountry
// -1.
func normalizeProfile(p *Profile, vec, rawViews []float64) []float64 {
	p.Spread = dist.Classify(rawViews)
	top := dist.ArgMax(rawViews)
	if t := dist.Sum(rawViews); t > 0 {
		for c, x := range rawViews {
			vec[c] = x / t
		}
	}
	p.TopCountry, p.TopShare = geo.CountryID(top), 0
	if top >= 0 {
		p.TopShare = vec[top]
	}
	return vec
}
