package profilestore

import (
	"math"

	"viewstags/internal/tagviews"
)

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
// stored vector — and returns the discounted weight. A node's mixture and
// a gateway's are these terms in tag order, then Normalize: bit for bit.
func Mix(dst []float64, weight float64, rank int, vec []float64) float64 {
	weight /= float64(rank + 1)
	for c, x := range vec {
		dst[c] += weight * x
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

// Row returns what tag is, for TagWeight and Mix under any weighting: its
// view total, video count and stored vector (read-only, aliasing the
// snapshot), or 0, 0, nil when the tag is unknown or has no views.
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
	return s.PredictPartialFilterInto(dst, tagNames, w, nil)
}

// PredictPartialFilterInto is PredictPartialInto restricted to tags the
// serve predicate admits (nil admits every tag). The replicated cluster
// tier uses it so that, of the R shards holding a tag, exactly one —
// chosen by the shared ring's failover assignment — contributes it; the
// rank discount still keys off the caller's full list, so filtering
// changes which shard supplies a tag's term, never the term itself.
func (s *Snapshot) PredictPartialFilterInto(dst []float64, tagNames []string, w tagviews.Weighting, serve func(string) bool) float64 {
	clear(dst)
	var wSum float64
	for rank, t := range tagNames {
		if views, videos, vec := s.Row(t); vec != nil && (serve == nil || serve(t)) {
			if weight := TagWeight(w, views, videos, s.records); weight > 0 {
				wSum += Mix(dst, weight, rank, vec)
			}
		}
	}
	return wSum
}

// TagWeight is the one weight rule, a node's and a gateway's: what a tag
// of views view mass, carried by videos of records videos, counts for in
// a mixture under w, before the rank discount. Not positive means the tag
// is skipped — a zero-mass (or NaN) tag carries no signal (mirrors the
// offline predictor's guard), and under IDF neither does one no video
// carries.
func TagWeight(w tagviews.Weighting, views float64, videos, records int) float64 {
	if !(views > 0) {
		return 0
	}
	switch w {
	case tagviews.WeightUniform:
		return 1
	case tagviews.WeightByViews:
		return views
	case tagviews.WeightIDF:
		if df := float64(videos); df > 0 {
			return math.Log(1 + float64(records)/df)
		}
	}
	return 0
}
