package profilestore

import (
	"fmt"

	"viewstags/internal/geo"
	"viewstags/internal/tagviews"
)

// SnapshotData is the portable content of a Snapshot: everything a
// codec must persist to reconstruct an identical serving snapshot, and
// nothing derivable (the name index, the volume ranking and the hash
// seed are rebuilt at import). internal/persist serializes this shape.
//
// Export returns views into the live snapshot's backing storage —
// Profiles, their sums and Prior alias immutable state and must be
// treated as read-only. FromData copies and writes nothing: the slices it
// is handed become the new snapshot's storage.
type SnapshotData struct {
	// Codes is the country table, in id order — the import-time
	// compatibility check: a snapshot only deserializes against a world
	// with the identical table.
	Codes   []string
	Records int
	Prior   []float64
	// Profiles is the tag table in id order: a tag's id is its index.
	// Each profile's Views has len(Codes) entries, and its TotalViews is
	// their exact total.
	Profiles []Profile
}

// Export captures the snapshot's persistable content. The result
// aliases the snapshot's immutable storage (zero-copy); callers must
// not modify it.
func (s *Snapshot) Export() SnapshotData {
	return SnapshotData{
		Codes:    s.world.Codes(),
		Records:  s.records,
		Prior:    s.prior,
		Profiles: s.profiles,
	}
}

// ExportFiltered captures the persistable content of the snapshot's
// tags the keep predicate admits, in a fresh profile table whose sums
// still alias immutable storage. This is the shard-transfer export: a
// source shard streams exactly the slice a destination owns.
func (s *Snapshot) ExportFiltered(keep func(name string) bool) SnapshotData {
	data := SnapshotData{
		Codes:   s.world.Codes(),
		Records: s.records,
		Prior:   s.prior,
	}
	for i := range s.profiles {
		if keep != nil && !keep(s.profiles[i].Name) {
			continue
		}
		data.Profiles = append(data.Profiles, s.profiles[i])
	}
	return data
}

// MergeData overlays exported data onto a base snapshot: profiles are
// matched by name — incoming entries replace existing ones and unknown
// names append, in the incoming order, so two nodes merging the same
// transfer converge on the same snapshot — and the record count takes
// the maximum of the two sides (each side's count is a lower bound on
// the true global corpus, so max is the convergent fold of the
// replicated counters). The result is a fresh snapshot; base is not
// modified.
func MergeData(base *Snapshot, data SnapshotData) (*Snapshot, error) {
	merged := SnapshotData{
		Codes:    base.world.Codes(),
		Records:  base.records,
		Prior:    base.prior,
		Profiles: append([]Profile(nil), base.profiles...),
	}
	if data.Records > merged.Records {
		merged.Records = data.Records
	}
	byName := make(map[string]int, len(merged.Profiles))
	for i := range merged.Profiles {
		byName[merged.Profiles[i].Name] = i
	}
	for _, p := range data.Profiles {
		if j, ok := byName[p.Name]; ok {
			merged.Profiles[j] = p
		} else {
			byName[p.Name] = len(merged.Profiles)
			merged.Profiles = append(merged.Profiles, p)
		}
	}
	return FromData(merged, base.world)
}

// Filter rebuilds the snapshot keeping only the tags the predicate
// admits — the post-reshard prune: a shard that lost part of its slice
// drops the profiles it no longer owns so its memory and /v1/tags view
// track the new topology. Records is global, not per-tag, so it is
// retained in full.
func (s *Snapshot) Filter(keep func(name string) bool) (*Snapshot, error) {
	return FromData(s.ExportFiltered(keep), s.world)
}

// FromData reconstructs a serving snapshot from exported data against
// the given world, which must carry the identical country table the
// data was exported under (same codes, same order) — vectors are
// indexed by country id, so any drift would silently misattribute every
// view. The round trip Export → FromData is bit-identical on every
// persisted field: profiles with their sums, prior and record count
// compare exactly; only the derived structures (hash seed, shard maps)
// are rebuilt, and those are pure functions of the profile table. data is
// only read, so it may alias a live snapshot's Export.
func FromData(data SnapshotData, world *geo.World) (*Snapshot, error) {
	if world == nil {
		return nil, fmt.Errorf("profilestore: nil world")
	}
	codes := world.Codes()
	if len(data.Codes) != len(codes) {
		return nil, fmt.Errorf("profilestore: snapshot has %d countries, world has %d", len(data.Codes), len(codes))
	}
	for i, c := range data.Codes {
		if c != codes[i] {
			return nil, fmt.Errorf("profilestore: snapshot country %d is %q, world has %q — saved under a different dataset", i, c, codes[i])
		}
	}
	nC := len(codes)
	if data.Records < 0 {
		return nil, fmt.Errorf("profilestore: negative record count %d", data.Records)
	}
	if len(data.Prior) != nC {
		return nil, fmt.Errorf("profilestore: prior has %d entries for %d countries", len(data.Prior), nC)
	}
	seen := make(map[string]bool, len(data.Profiles))
	for i := range data.Profiles {
		p := &data.Profiles[i]
		if p.Name == "" {
			return nil, fmt.Errorf("profilestore: profile %d has no name", i)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("profilestore: duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
		if len(p.Views) != nC {
			return nil, fmt.Errorf("profilestore: profile %q vector has %d entries for %d countries", p.Name, len(p.Views), nC)
		}
	}
	return newSnapshot(data, world), nil
}

// SharesToSums converts in place data whose profiles hold normalized
// shares, as VTCKPT01 checkpoints did, into sums: each share times its
// TotalViews, rounded (tagviews.RoundViews), and the profile derived again.
func SharesToSums(data SnapshotData) {
	for i := range data.Profiles {
		p := &data.Profiles[i]
		for c, x := range p.Views {
			p.Views[c] = tagviews.RoundViews(x * p.TotalViews)
		}
		deriveProfile(p)
	}
}
