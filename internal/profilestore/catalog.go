package profilestore

import (
	"viewstags/internal/geo"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// PredictCatalog computes the tag-predicted demand field of every video
// in a catalog against this snapshot: the [][]float64 shape the
// placement evaluator and the cache simulator consume, and the reference
// PredictColumn is held to. Untagged videos and videos whose tags are all
// unknown get a nil entry ("no prediction"), matching the offline
// harnesses' treatment.
func (s *Snapshot) PredictCatalog(cat *synth.Catalog, w tagviews.Weighting) [][]float64 {
	predicted := make([][]float64, len(cat.Videos))
	for i := range cat.Videos {
		names := cat.Videos[i].TagNames(cat.Vocab)
		if len(names) == 0 {
			continue
		}
		buf := make([]float64, s.nC)
		if s.PredictInto(buf, names, w) {
			predicted[i] = buf
		}
	}
	return predicted
}

// ColumnLen is the length of the scratch PredictColumn needs over cat:
// the column, plus a weight, a total and a country entry per name of its
// tag table.
func ColumnLen(cat *synth.Served) int { return cat.N() + 3*len(cat.TagNames) }

// PredictColumn computes one country's column of PredictCatalog — every
// video's predicted share of views in c, bit for bit the [c] entry
// PredictInto writes, and 0 where PredictCatalog has no prediction — into
// the front of buf (ColumnLen long; the rest is scratch) and returns it.
// It is what a preload advisory for c ranks by, at the cost of one lookup
// per vocabulary name and one pass over the catalog's tag ids instead of
// a country-table-wide row per video; it allocates nothing.
func (s *Snapshot) PredictColumn(buf []float64, cat *synth.Served, c geo.CountryID, w tagviews.Weighting) []float64 {
	n := cat.N()
	col, memo := buf[:n], buf[n:ColumnLen(cat)]
	// memo[3t:3t+3]: name t's weight (0 = skipped), total and sum in c.
	for t, name := range cat.TagNames {
		var weight, total, x float64
		if views, videos, vec := s.Row(name); vec != nil {
			weight, total, x = w.Weight(views, videos, s.records), views, vec[c]
		}
		memo[3*t], memo[3*t+1], memo[3*t+2] = weight, total, x
	}
	for v := range col {
		var acc, wSum float64
		for rank, t := range cat.TagIDs[cat.TagOff[v]:cat.TagOff[v+1]] {
			weight := memo[3*t]
			if weight <= 0 {
				continue
			}
			weight /= float64(rank + 1)
			acc += weight / memo[3*t+1] * memo[3*t+2]
			wSum += weight
		}
		if wSum != 0 {
			acc *= 1 / wSum
		}
		col[v] = acc
	}
	return col
}
