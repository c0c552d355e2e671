package tagviews

import (
	"fmt"
	"sort"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/stats"
)

// The paper's title reads in both directions: from views to *tags
// distribution*. This file provides the per-country view: for a fixed
// country c, how views distribute across tags — which tags dominate a
// country's YouTube consumption, and how concentrated that consumption
// is. It is the dual of TagProfile and the basis for country-level
// placement decisions.

// TagShare is one (tag, views) pair inside a country's consumption.
type TagShare struct {
	Name  string
	Views float64 // reconstructed views of the tag in this country
	Share float64 // fraction of the country's tag-view mass
}

// CountryProfile describes one country's tag consumption.
type CountryProfile struct {
	Country geo.CountryID
	// TagViews is the country's total tag-view mass Σ_t views(t)[c]
	// (videos are counted once per carried tag, as in Eq. 3).
	TagViews float64
	// TopTags are the k most-viewed tags in the country, descending.
	TopTags []TagShare
	// Gini measures how concentrated the country's views are across
	// tags (0 = spread evenly over tags, →1 = few tags dominate).
	Gini float64
	// Entropy is the Shannon entropy (bits) of the country's tag
	// distribution.
	Entropy float64
	// DistinctTags is the number of tags with non-zero views here.
	DistinctTags int
}

// CountryProfile computes country c's tag-consumption profile with the
// top k tags. It returns an error for an out-of-range country.
func (a *Analysis) CountryProfile(c geo.CountryID, k int) (*CountryProfile, error) {
	if int(c) < 0 || int(c) >= a.World.N() {
		return nil, fmt.Errorf("tagviews: country %d out of range", int(c))
	}
	type tv struct {
		name  string
		views float64
	}
	all := make([]tv, 0, len(a.tags))
	var total float64
	values := make([]float64, 0, len(a.tags))
	for name, s := range a.tags {
		v := s.Views[c]
		if v <= 0 {
			continue
		}
		all = append(all, tv{name: name, views: v})
		total += v
		values = append(values, v)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].views != all[j].views {
			return all[i].views > all[j].views
		}
		return all[i].name < all[j].name
	})
	if k > len(all) {
		k = len(all)
	}
	p := &CountryProfile{
		Country:      c,
		TagViews:     total,
		Gini:         stats.Gini(values),
		Entropy:      stats.Entropy(values),
		DistinctTags: len(all),
	}
	for _, t := range all[:k] {
		share := 0.0
		if total > 0 {
			share = t.views / total
		}
		p.TopTags = append(p.TopTags, TagShare{Name: t.name, Views: t.views, Share: share})
	}
	return p, nil
}

// NearestTags returns the k tags whose geographic fields are closest
// (smallest JS divergence) to the named tag, among tags with at least
// minVideos videos. The named tag itself is excluded.
func (a *Analysis) NearestTags(name string, k, minVideos int) ([]string, []float64, error) {
	ref, ok := a.tags[name]
	if !ok {
		return nil, nil, fmt.Errorf("tagviews: unknown tag %q", name)
	}
	type cand struct {
		name string
		js   float64
	}
	var cands []cand
	for other, s := range a.tags {
		if other == name || s.Videos < minVideos {
			continue
		}
		cands = append(cands, cand{name: other, js: jsOrPanic(ref.Views, s.Views)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].js != cands[j].js {
			return cands[i].js < cands[j].js
		}
		return cands[i].name < cands[j].name
	})
	if k > len(cands) {
		k = len(cands)
	}
	names := make([]string, k)
	dists := make([]float64, k)
	for i := 0; i < k; i++ {
		names[i] = cands[i].name
		dists[i] = cands[i].js
	}
	return names, dists, nil
}

// jsOrPanic wraps dist.JS for same-world vectors, where a length
// mismatch is a programming error rather than a runtime condition.
func jsOrPanic(x, y []float64) float64 {
	d, err := dist.JS(x, y)
	if err != nil {
		panic("tagviews: " + err.Error())
	}
	return d
}
