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
	wSum := s.PredictPartialInto(dst, tagNames, w)
	if wSum == 0 {
		copy(dst, s.prior)
		return false
	}
	inv := 1 / wSum
	for i := range dst {
		dst[i] *= inv
	}
	return true
}

// PredictPartialInto writes the unnormalized weighted tag mixture into
// dst — Σ over known tags of weight·vector, with dst zeroed first — and
// returns the weight sum, applying neither the final normalization nor
// the prior fallback. This is the mergeable export the cluster tier is
// built on: tags are partitioned across shards, so each shard's
// (partial sum, weight sum) pair covers a disjoint tag subset, and a
// gateway reconstructs the exact single-node prediction by adding the
// vectors, adding the weight sums, and dividing (falling back to the
// shared prior when the total weight is zero) — the same arithmetic
// PredictInto runs locally.
//
// Exactness rests on two globals every partial snapshot retains in
// full: Records (the IDF numerator n) and the harmonic rank discount,
// which uses each tag's position in the list it is given — so a partial
// over a sub-list is only mergeable if the caller accounts for the
// positions itself (the cluster gateway asks for one tag at a time and
// divides each rank-0 row by the tag's position in its item).
func (s *Snapshot) PredictPartialInto(dst []float64, tagNames []string, w tagviews.Weighting) float64 {
	return s.PredictPartialFilterInto(dst, tagNames, w, nil)
}

// PredictPartialFilterInto is PredictPartialInto restricted to tags the
// serve predicate admits (nil admits every tag). The replicated cluster
// tier uses it so that, of the R shards holding a tag, exactly one —
// chosen by the shared ring's failover assignment — contributes it to
// the merge; the rank discount still keys off the caller's full list,
// so filtering changes which shard supplies a tag's term, never the
// term itself.
func (s *Snapshot) PredictPartialFilterInto(dst []float64, tagNames []string, w tagviews.Weighting, serve func(string) bool) float64 {
	for i := range dst {
		dst[i] = 0
	}
	var wSum float64
	for rank, t := range tagNames {
		id, ok := s.Lookup(t)
		if !ok {
			continue
		}
		if serve != nil && !serve(t) {
			continue
		}
		weight := s.tagWeight(id, w)
		if weight <= 0 {
			continue
		}
		// Uploaders front-load topical tags; harmonic rank discounting
		// mirrors the offline predictor.
		weight /= float64(rank + 1)
		vec := s.Vec(id)
		for c, x := range vec {
			dst[c] += weight * x
		}
		wSum += weight
	}
	return wSum
}

// tagWeight is the one weight rule: what tag id counts for in a mixture
// under w, before the rank discount. Not positive means the tag is
// skipped — a zero-mass tag carries no signal (mirrors the offline
// predictor's guard; its stored vector is all-zero), and neither does one
// no video carries.
func (s *Snapshot) tagWeight(id int32, w tagviews.Weighting) float64 {
	p := &s.profiles[id]
	if p.TotalViews <= 0 {
		return 0
	}
	switch w {
	case tagviews.WeightUniform:
		return 1
	case tagviews.WeightByViews:
		return p.TotalViews
	case tagviews.WeightIDF:
		if df := float64(p.Videos); df > 0 {
			return math.Log(1 + float64(s.records)/df)
		}
	}
	return 0
}
