package tagviews

import (
	"fmt"
	"math"

	"viewstags/internal/dist"
)

// Weighting selects how a video's tags are combined into a prediction.
type Weighting int

// Weighting schemes. Enums start at one so the zero value is invalid.
const (
	WeightingInvalid Weighting = iota
	// WeightUniform averages the tags' normalized fields.
	WeightUniform
	// WeightByViews weights each tag by its aggregated view volume —
	// heavily-viewed tags speak louder.
	WeightByViews
	// WeightIDF discounts ubiquitous tags (log-inverse document
	// frequency), so "music" contributes less than "favela".
	WeightIDF
)

// String returns the scheme name.
func (w Weighting) String() string {
	switch w {
	case WeightUniform:
		return "uniform"
	case WeightByViews:
		return "by-views"
	case WeightIDF:
		return "idf"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// Weight is the one weight rule, the offline predictor's, a node's and a
// gateway's: what a tag of views view mass, carried by videos of records
// training videos, counts for in a mixture under w, before the rank
// discount. Not positive means the tag is skipped — a zero-mass (or NaN)
// tag has no geographic signal and would poison the mixture, and under
// IDF neither does one no video carries.
func (w Weighting) Weight(views float64, videos, records int) float64 {
	if !(views > 0) {
		return 0
	}
	switch w {
	case WeightUniform:
		return 1
	case WeightByViews:
		return views
	case WeightIDF:
		if df := float64(videos); df > 0 {
			return math.Log(1 + float64(records)/df)
		}
	}
	return 0
}

// ParseWeighting resolves a weighting-scheme name as used on the wire
// ("uniform", "by-views", "idf"); the empty string selects WeightIDF,
// the scheme the E5 ablation found strongest.
func ParseWeighting(name string) (Weighting, error) {
	if name == "" {
		return WeightIDF, nil
	}
	for _, w := range []Weighting{WeightUniform, WeightByViews, WeightIDF} {
		if w.String() == name {
			return w, nil
		}
	}
	return WeightingInvalid, fmt.Errorf("tagviews: unknown weighting %q", name)
}

// Predictor predicts a video's geographic view distribution from its
// tags, using the tag profiles of an Analysis (the training corpus).
type Predictor struct {
	a *Analysis
	w Weighting
}

// NewPredictor builds a predictor over the analysis with the given
// weighting scheme.
func NewPredictor(a *Analysis, w Weighting) (*Predictor, error) {
	switch w {
	case WeightUniform, WeightByViews, WeightIDF:
		return &Predictor{a: a, w: w}, nil
	default:
		return nil, fmt.Errorf("tagviews: unknown weighting %d", int(w))
	}
}

// Predict returns a normalized predicted view distribution for a video
// carrying the given (normalized) tag names. Unknown tags are ignored;
// when none of the tags is known the prediction falls back to the
// traffic prior (the least-informative guess), and the second return is
// false.
func (p *Predictor) Predict(tagNames []string) ([]float64, bool) {
	var comps [][]float64
	var weights []float64
	for rank, t := range tagNames {
		s, ok := p.a.tags[t]
		if !ok {
			continue
		}
		w := p.w.Weight(s.Total(), s.Videos, p.a.N())
		if w <= 0 {
			continue
		}
		// Uploaders front-load topical tags, so earlier tags carry more
		// geographic signal; harmonic rank discounting exploits that.
		w /= float64(rank + 1)
		comps = append(comps, s.Views)
		weights = append(weights, w)
	}
	if len(comps) == 0 {
		return dist.Normalize(p.a.Pyt), false
	}
	mixed, err := dist.Mix(comps, weights)
	if err != nil {
		// Components are world-sized fields with positive weights; a
		// failure here is a programming error.
		panic("tagviews: predict mix: " + err.Error())
	}
	return mixed, true
}
