package synth

import (
	"fmt"
	"sort"

	"viewstags/internal/geo"
)

// TopK returns the indices of the k best of n candidates, highest score
// first and lower index first among equal scores: the one ordering behind
// every "top videos" list (TopByViews, TopInCountry, the cache
// simulator's push sets and the /v1/preload advisories), so none of them
// can break a tie differently. score reports false for an index that is
// not a candidate. It holds k entries, never n: O(n log k) time.
func TopK[S int64 | float64](n, k int, score func(i int) (S, bool)) []int {
	return topK(n, k, score, func(i, j int) bool { return i < j })
}

// TopTags returns the indices of the k highest-volume of n tags, views
// descending and name ascending among equal views: the one tag ranking
// behind tagviews.Aggregate.TopTags, a snapshot's /v1/tags listing and a
// gateway's merge of its shards' lists, so a node and a gateway list ties
// alike whatever order their tags are held in. Names must be distinct.
// Like TopK it clamps k to [0, n] before it sizes anything.
func TopTags(n, k int, views func(i int) float64, name func(i int) string) []int {
	return topK(n, k, func(i int) (float64, bool) { return views(i), true },
		func(i, j int) bool { return name(i) < name(j) })
}

// topK is the selector behind TopK and TopTags: score descending, and
// before(i, j) reports whether i ranks first among equal scores.
func topK[S int64 | float64](n, k int, score func(i int) (S, bool), before func(i, j int) bool) []int {
	type entry struct {
		s S
		i int
	}
	below := func(a, b entry) bool { return a.s < b.s || (a.s == b.s && before(b.i, a.i)) }
	// h holds the best k so far; once full it is a heap with the
	// lowest-ranked of them at h[0], the one a better candidate evicts.
	h := make([]entry, 0, max(0, min(k, n)))
	down := func(p int) {
		for {
			c := 2*p + 1
			if c+1 < len(h) && below(h[c+1], h[c]) {
				c++
			}
			if c >= len(h) || !below(h[c], h[p]) {
				return
			}
			h[c], h[p] = h[p], h[c]
			p = c
		}
	}
	for i := 0; i < n && k > 0; i++ {
		s, ok := score(i)
		if !ok {
			continue
		}
		switch e := (entry{s, i}); {
		case len(h) < k:
			if h = append(h, e); len(h) == k {
				for p := k/2 - 1; p >= 0; p-- {
					down(p)
				}
			}
		case below(h[0], e):
			h[0] = e
			down(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return below(h[b], h[a]) })
	out := make([]int, len(h))
	for j, e := range h {
		out[j] = e.i
	}
	return out
}

// TopInCountry returns the indices of the k videos with the most
// ground-truth views in country id, descending — the oracle behind the
// simulated API's per-country most_popular standard feed.
func (c *Catalog) TopInCountry(id geo.CountryID, k int) []int {
	return TopK(len(c.Videos), k, func(i int) (int64, bool) { return c.Videos[i].TrueViews[id], true })
}

// ByID finds a video by its YouTube-shaped id. Safe for concurrent use:
// the id→index map is built on the first call, once — the API server's
// handlers are the first callers, many at a time under a parallel crawl.
func (c *Catalog) ByID(id string) (*Video, bool) {
	c.idOnce.Do(func() {
		c.idIndex = make(map[string]int, len(c.Videos))
		for i := range c.Videos {
			c.idIndex[c.Videos[i].ID] = i
		}
	})
	i, ok := c.idIndex[id]
	if !ok {
		return nil, false
	}
	return &c.Videos[i], true
}

// TagIndex returns a map from vocabulary tag id to the indices of videos
// carrying that tag.
func (c *Catalog) TagIndex() map[int][]int {
	out := make(map[int][]int)
	for i := range c.Videos {
		for _, t := range c.Videos[i].TagIDs {
			out[t] = append(out[t], i)
		}
	}
	return out
}

// Stats summarizes the catalog's pathology composition.
type Stats struct {
	Videos     int
	Untagged   int
	PopOK      int
	PopEmpty   int
	PopCorrupt int
	UniqueTags int
	TotalViews int64
}

// Stats computes catalog composition statistics.
func (c *Catalog) Stats() Stats {
	s := Stats{Videos: len(c.Videos)}
	seen := make(map[int]bool)
	for i := range c.Videos {
		v := &c.Videos[i]
		if len(v.TagIDs) == 0 {
			s.Untagged++
		}
		for _, t := range v.TagIDs {
			seen[t] = true
		}
		switch v.PopState {
		case PopStateOK:
			s.PopOK++
		case PopStateEmpty:
			s.PopEmpty++
		case PopStateCorrupt:
			s.PopCorrupt++
		}
		s.TotalViews += v.TotalViews
	}
	s.UniqueTags = len(seen)
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("videos=%d untagged=%d popOK=%d popEmpty=%d popCorrupt=%d uniqueTags=%d totalViews=%d",
		s.Videos, s.Untagged, s.PopOK, s.PopEmpty, s.PopCorrupt, s.UniqueTags, s.TotalViews)
}
