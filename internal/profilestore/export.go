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
// Profiles, Vecs and Prior alias immutable state and must be treated as
// read-only. FromData copies nothing either: the decoded slices become
// the new snapshot's storage, so a decoder must hand over freshly
// allocated data.
type SnapshotData struct {
	// Codes is the country table, in id order — the import-time
	// compatibility check: a snapshot only deserializes against a world
	// with the identical table.
	Codes   []string
	Records int
	Prior   []float64
	// Profiles is the tag table in id order; Profiles[i].ID == i.
	Profiles []Profile
	// Vecs[i] is Profiles[i]'s per-country view sums, length len(Codes)
	// each; Profiles[i].TotalViews is their exact total.
	Vecs [][]float64
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
		Vecs:     s.vecTab,
	}
}

// ExportFiltered captures the persistable content of the snapshot's
// tags the keep predicate admits. Unlike Export it builds fresh Profile
// and Vecs slices (the vectors themselves still alias immutable
// storage), so the result survives FromData's positional id rewrite
// without mutating the live snapshot. This is the shard-transfer
// export: a source shard streams exactly the slice a destination owns.
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
		data.Vecs = append(data.Vecs, s.vecTab[i])
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
		Vecs:     append([][]float64(nil), base.vecTab...),
	}
	if data.Records > merged.Records {
		merged.Records = data.Records
	}
	byName := make(map[string]int, len(merged.Profiles))
	for i := range merged.Profiles {
		byName[merged.Profiles[i].Name] = i
	}
	if len(data.Vecs) != len(data.Profiles) {
		return nil, fmt.Errorf("profilestore: merge data has %d vectors for %d profiles", len(data.Vecs), len(data.Profiles))
	}
	for i := range data.Profiles {
		if j, ok := byName[data.Profiles[i].Name]; ok {
			merged.Profiles[j] = data.Profiles[i]
			merged.Vecs[j] = data.Vecs[i]
		} else {
			byName[data.Profiles[i].Name] = len(merged.Profiles)
			merged.Profiles = append(merged.Profiles, data.Profiles[i])
			merged.Vecs = append(merged.Vecs, data.Vecs[i])
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
// persisted field: profiles, vectors, prior and record count compare
// exactly; only the derived structures (hash seed, shard maps, volume
// ranking) are rebuilt, and those are pure functions of the profile
// table.
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
	if len(data.Vecs) != len(data.Profiles) {
		return nil, fmt.Errorf("profilestore: %d vectors for %d profiles", len(data.Vecs), len(data.Profiles))
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
		if len(data.Vecs[i]) != nC {
			return nil, fmt.Errorf("profilestore: profile %q vector has %d entries for %d countries", p.Name, len(data.Vecs[i]), nC)
		}
		// Ids are positional; normalize rather than trust the wire.
		p.ID = int32(i)
	}
	return newSnapshot(data, world), nil
}

// SharesToSums converts in place data whose vectors are normalized shares,
// as VTCKPT01 checkpoints held them, into sums: each share times its
// TotalViews, rounded (tagviews.RoundViews), and the profile derived again.
func SharesToSums(data SnapshotData) {
	for i := range data.Profiles {
		p, vec := &data.Profiles[i], data.Vecs[i]
		for c, x := range vec {
			vec[c] = tagviews.RoundViews(x * p.TotalViews)
		}
		deriveProfile(p, vec)
	}
}
