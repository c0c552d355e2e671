package profilestore

import "viewstags/internal/tagviews"

// PredictInto writes the predicted view distribution for a video
// carrying the given tag names into dst (length = world size) and
// reports whether any tag was known. It reproduces
// tagviews.Predictor.Predict exactly — same weighting schemes, same
// harmonic rank discount, same traffic-prior fallback — but runs
// against the snapshot's interned ids and contiguous vectors and
// allocates nothing, which is what lets the HTTP hot path batch
// thousands of predictions per second per core.
//
// Unknown tags are skipped; when no tag is known dst receives the
// normalized traffic prior and the return is false.
func (s *Snapshot) PredictInto(dst []float64, tagNames []string, w tagviews.Weighting) bool {
	return Normalize(dst, s.PredictPartialInto(dst, tagNames, w), s.prior)
}

// Mix adds one tag's term to a mixture in dst — its weight discounted by
// its rank in the item (uploaders front-load topical tags), times its
// sums over their total — and returns the discounted weight. A node's
// mixture and a gateway's are these terms in tag order, then Normalize:
// bit for bit.
//
// The loop takes four elements a step behind one bounds check, each still
// dst[c] += scale*x in country order, so it writes what the plain loop
// writes (TestMixMatchesScalarLoop); dst must be at least as long as vec.
func Mix(dst []float64, weight, total float64, rank int, vec []float64) float64 {
	weight /= float64(rank + 1)
	scale := weight / total
	dst = dst[:len(vec)]
	c := 0
	for ; c+4 <= len(vec); c += 4 {
		d, x := dst[c:c+4:c+4], vec[c:c+4:c+4]
		d[0] += scale * x[0]
		d[1] += scale * x[1]
		d[2] += scale * x[2]
		d[3] += scale * x[3]
	}
	for ; c < len(vec); c++ {
		dst[c] += scale * vec[c]
	}
	return weight
}

// Normalize finishes a mixture: dst scaled by 1/wSum, or — when no tag
// carried weight — the traffic prior. It reports whether any tag did.
func Normalize(dst []float64, wSum float64, prior []float64) bool {
	if wSum == 0 {
		copy(dst, prior)
		return false
	}
	inv := 1 / wSum
	for i := range dst {
		dst[i] *= inv
	}
	return true
}

// Row returns what tag is, for Weighting.Weight and Mix under any
// weighting: its view total, video count and per-country sums (read-only,
// aliasing the snapshot), or 0, 0, nil when the tag is unknown or has no
// views.
func (s *Snapshot) Row(tag string) (float64, int, []float64) {
	if id, ok := s.Lookup(tag); ok {
		if p := &s.profiles[id]; p.TotalViews > 0 {
			return p.TotalViews, p.Videos, s.Vec(id)
		}
	}
	return 0, 0, nil
}

// PredictPartialInto writes the unnormalized weighted tag mixture into
// dst — Σ over known tags of Mix's terms, with dst zeroed first — and
// returns the weight sum, applying neither the final normalization nor
// the prior fallback. A shard answers a plain /internal/predict item
// with it; the cluster gateway asks for rows instead (Row) and adds the
// terms itself, in the item's order, with the same Mix.
func (s *Snapshot) PredictPartialInto(dst []float64, tagNames []string, w tagviews.Weighting) float64 {
	clear(dst)
	var wSum float64
	for rank, t := range tagNames {
		if views, videos, vec := s.Row(t); vec != nil {
			if weight := w.Weight(views, videos, s.records); weight > 0 {
				wSum += Mix(dst, weight, views, rank, vec)
			}
		}
	}
	return wSum
}
