// Package tagviews is the paper's primary contribution: from a filtered
// crawl, derive each tag's geographic view distribution (Eq. 3,
// views(t)[c] = Σ_{v∈videos(t)} views(v)[c]), characterize how
// concentrated or global each tag is (the Figs. 2–3 observation), and
// use tag profiles as predictive markers of where a video's views come
// from — the conjecture the paper closes on and the basis of its
// proactive-geographic-caching proposal.
//
// Aggregator is the one Eq. 3 loop: it folds records into an Aggregate
// and keeps none of them, which is how the daemons boot. Build runs it
// serially over a retained corpus and keeps the records beside the sums
// for the per-video accessors research callers use.
package tagviews

import (
	"math"
	"sort"

	"viewstags/internal/dataset"
	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/synth"
)

// Aggregate is the per-tag half of an analysis — the Eq. 3 sums, each
// tag's video count and view total, and the size of the corpus they were
// taken over. It is all a serving snapshot is built from, so a daemon can
// hold it without the corpus (see Aggregator).
type Aggregate struct {
	World *geo.World
	Pyt   []float64 // the traffic estimate used for reconstruction

	n int // records folded in, unreconstructable ones included

	tags map[string]*TagSums
}

// TagSums is one tag's raw aggregate: what its profile is derived from.
type TagSums struct {
	Views  []float64 // Eq. 3: Σ of the carrying videos' view fields, exact (RoundViews)
	Videos int       // videos carrying the tag
}

// ViewUnit is the grain of every Eq. 3 sum. Each added term is a multiple
// of it, so a sum below 2⁵³ units (≈8.8·10¹² views), a tag's total
// included, is exact: its bits do not depend on how its terms were
// grouped. Past that the sums stay finite but round again.
const ViewUnit = 1.0 / 1024

// RoundViews is the one rounding rule: x to the nearest multiple of
// ViewUnit, for a record's reconstructed field and an ingest event's views.
func RoundViews(x float64) float64 { return math.Round(x/ViewUnit) * ViewUnit }

// Total is the tag's exact view total, Σ Views.
func (s *TagSums) Total() float64 { return dist.Sum(s.Views) }

// Analysis is an Aggregate together with the records it was taken over —
// what the per-video accessors need on top of the tag profiles.
type Analysis struct {
	Aggregate

	records []dataset.Record
}

// N returns the number of records in the analysis.
func (a *Aggregate) N() int { return a.n }

// NumTags returns the number of distinct tags aggregated.
func (a *Aggregate) NumTags() int { return len(a.tags) }

// Sums returns one tag's raw aggregate. Views is shared: read-only unless
// the caller goes on to Release the aggregate.
func (a *Aggregate) Sums(name string) (TagSums, bool) {
	s, ok := a.tags[name]
	if !ok {
		return TagSums{}, false
	}
	return *s, true
}

// Release empties the aggregate, handing every Views slice Sums returned
// to whoever holds it — profilestore.BuildAggregate adopts them as a
// snapshot's vectors. Afterwards the aggregate has no tags, so nothing
// reads a vector the snapshot now owns.
func (a *Aggregate) Release() { a.tags = nil }

// Record returns record i.
func (a *Analysis) Record(i int) *dataset.Record { return &a.records[i] }

// TagProfile is one tag's geographic portrait — the unit of the paper's
// §3 analysis.
type TagProfile struct {
	Name       string
	Videos     int     // videos carrying the tag
	TotalViews float64 // Σ Views, exact
	Views      []float64
	// Derived concentration measures:
	Entropy            float64 // Shannon entropy (bits) of the normalized field
	EffectiveCountries float64 // 2^Entropy
	TopCountry         geo.CountryID
	TopShare           float64 // mass of the top country
	Spread             dist.Spread
	// JSToTraffic is the Jensen–Shannon divergence between the tag's
	// field and the traffic estimate — 0-ish for tags that "follow the
	// world distribution of YouTube users" (Fig. 2), large for
	// concentrated tags (Fig. 3).
	JSToTraffic float64
}

// TagProfile computes the profile of one tag. The boolean reports
// whether the tag exists in the dataset.
func (a *Aggregate) TagProfile(name string) (*TagProfile, bool) {
	s, ok := a.tags[name]
	if !ok {
		return nil, false
	}
	return a.profileFor(name, s), true
}

func (a *Aggregate) profileFor(name string, s *TagSums) *TagProfile {
	views := s.Views
	p := dist.Normalize(views)
	top := dist.ArgMax(p)
	// A tag can aggregate to zero mass when every carrying record had
	// zero total views — legal in crawled datasets, so degrade to an
	// all-zero profile rather than panic on the undefined divergence.
	var js float64
	if dist.Sum(views) > 0 {
		var err error
		js, err = dist.JS(views, a.Pyt)
		if err != nil {
			// Both vectors are world-sized by construction.
			panic("tagviews: " + err.Error())
		}
	}
	eff := dist.EffectiveCountries(views)
	prof := &TagProfile{
		Name:               name,
		Videos:             s.Videos,
		TotalViews:         s.Total(),
		Views:              views,
		EffectiveCountries: eff,
		TopCountry:         geo.CountryID(top),
		Spread:             dist.Classify(views),
		JSToTraffic:        js,
	}
	if top >= 0 {
		prof.TopShare = p[top]
	}
	if eff > 0 {
		// EffectiveCountries is 2^H by definition, so H = log2(eff).
		prof.Entropy = math.Log2(eff)
	}
	return prof
}

// TopTags returns the k tags with the most aggregated views, descending.
// Ties break by name for determinism (synth.TopTags); k is clamped to
// [0, NumTags].
func (a *Aggregate) TopTags(k int) []*TagProfile {
	names := make([]string, 0, len(a.tags))
	for n := range a.tags {
		names = append(names, n)
	}
	top := synth.TopTags(len(names), k,
		func(i int) float64 { return a.tags[names[i]].Total() },
		func(i int) string { return names[i] })
	out := make([]*TagProfile, len(top))
	for j, i := range top {
		out[j] = a.profileFor(names[i], a.tags[names[i]])
	}
	return out
}

// SpreadCensus classifies every tag and counts the classes — the
// dataset-wide version of the paper's local-vs-global observation.
func (a *Aggregate) SpreadCensus() map[dist.Spread]int {
	out := make(map[dist.Spread]int, 3)
	for _, s := range a.tags {
		out[dist.Classify(s.Views)]++
	}
	return out
}

// TagNames returns all aggregated tag names, sorted (stable iteration
// for reports and tests).
func (a *Aggregate) TagNames() []string {
	names := make([]string, 0, len(a.tags))
	for n := range a.tags {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
