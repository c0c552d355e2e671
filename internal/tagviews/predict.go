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
	n := float64(p.a.N())
	for rank, t := range tagNames {
		s, ok := p.a.tags[t]
		if !ok {
			continue
		}
		// Zero-mass tags (all carrying records had zero views) have no
		// geographic signal to contribute and would poison the mixture.
		if s.TotalViews <= 0 {
			continue
		}
		var w float64
		switch p.w {
		case WeightUniform:
			w = 1
		case WeightByViews:
			w = s.TotalViews
		case WeightIDF:
			df := float64(s.Videos)
			if df <= 0 {
				continue
			}
			w = math.Log(1 + n/df)
		}
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
