// Package placement turns the paper's prediction machinery into the
// storage-layer decision its introduction motivates: "better distributed
// implementations of UGC systems". Each video gets R replicas placed in
// R countries; viewers fetch from the nearest replica (great-circle
// distance as the cost proxy). The question is where to put the
// replicas when all you know about a fresh upload is its uploader and
// its tags — exactly the information the paper's predictor consumes.
//
// Strategies compared (experiment E7, an extension beyond the poster):
//
//   - Home: all replicas at the uploader's country (the naive default).
//   - Popular: replicas in the globally largest markets (geography-blind).
//   - Predicted: replicas in the countries with the highest tag-predicted
//     demand (the paper's proposal applied to storage).
//   - Oracle: replicas placed with ground-truth demand (lower bound).
//
// Recommender writes each strategy once and is the online adapter behind
// the serving layer's /v1/place endpoint, answering one upload at a time
// from a demand vector the profile store predicts (oracle is rejected
// there — it needs ground truth a live service doesn't have). Evaluator
// scores the strategies offline against a catalog's ground truth through
// the same Recommend, asking for oracle as predicted with true demand.
package placement

import (
	"fmt"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/synth"
)

// Strategy selects a replica-placement strategy.
type Strategy int

// Strategies. Enums start at one so the zero value is invalid.
const (
	StrategyInvalid Strategy = iota
	StrategyHome
	StrategyPopular
	StrategyPredicted
	StrategyOracle
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyHome:
		return "home"
	case StrategyPopular:
		return "popular"
	case StrategyPredicted:
		return "predicted"
	case StrategyOracle:
		return "oracle"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterizes an evaluation.
type Config struct {
	// Replicas is the number of replicas per video (R >= 1).
	Replicas int
}

// DefaultConfig places three replicas, a common UGC-storage setting.
func DefaultConfig() Config { return Config{Replicas: 3} }

// Result reports a strategy's cost over a catalog.
type Result struct {
	Strategy Strategy
	Replicas int
	// MeanKm is the view-weighted mean distance from a viewer's country
	// to the nearest replica.
	MeanKm float64
	// LocalFraction is the fraction of views served from a replica in
	// the viewer's own country.
	LocalFraction float64
	// Views is the total view mass evaluated.
	Views float64
}

// String renders the result as a table row.
func (r Result) String() string {
	return fmt.Sprintf("%-9s R=%d meanKm=%.0f local=%.3f", r.Strategy, r.Replicas, r.MeanKm, r.LocalFraction)
}

// Evaluator scores placement strategies over a catalog; the strategies
// themselves are the Recommender's.
type Evaluator struct {
	cat *synth.Catalog
	rec *Recommender
	cfg Config
	// predicted[v] is the tag-predicted demand distribution (nil = no
	// prediction; Predicted falls back to Home for those videos).
	predicted [][]float64
}

// NewEvaluator builds an evaluator. It returns an error for an invalid
// replica count.
func NewEvaluator(cat *synth.Catalog, cfg Config) (*Evaluator, error) {
	if cfg.Replicas < 1 || cfg.Replicas > cat.World.N() {
		return nil, fmt.Errorf("placement: replicas %d outside [1, %d]", cfg.Replicas, cat.World.N())
	}
	return &Evaluator{cat: cat, rec: NewRecommender(cat.World), cfg: cfg}, nil
}

// SetPredictions installs tag-predicted demand fields (indexed by
// catalog video index, nil = unpredicted).
func (e *Evaluator) SetPredictions(pred [][]float64) error {
	if len(pred) != len(e.cat.Videos) {
		return fmt.Errorf("placement: %d predictions for %d videos", len(pred), len(e.cat.Videos))
	}
	e.predicted = pred
	return nil
}

// Placements returns the replica countries strategy s chooses for video
// v (deterministic, length = Config.Replicas unless fewer countries have
// signal). Oracle is Predicted with the video's true views as the
// prediction.
func (e *Evaluator) Placements(s Strategy, v int) ([]geo.CountryID, error) {
	video := &e.cat.Videos[v]
	var demand []float64
	switch s {
	case StrategyPredicted:
		if e.predicted == nil {
			return nil, fmt.Errorf("placement: StrategyPredicted requires SetPredictions")
		}
		demand = e.predicted[v]
	case StrategyOracle:
		s = StrategyPredicted
		demand = make([]float64, len(video.TrueViews))
		for c, n := range video.TrueViews {
			demand[c] = float64(n)
		}
	}
	return e.rec.Recommend(s, video.Upload, demand, e.cfg.Replicas)
}

// topCountries returns the r highest-mass countries of a demand field.
func topCountries(field []float64, r int) []geo.CountryID {
	_, top := dist.TopShare(field, r)
	out := make([]geo.CountryID, len(top))
	for i, c := range top {
		out[i] = geo.CountryID(c)
	}
	return out
}

// Evaluate scores one strategy over the whole catalog: every
// ground-truth view is served from the nearest replica of its video.
func (e *Evaluator) Evaluate(s Strategy) (Result, error) {
	res := Result{Strategy: s, Replicas: e.cfg.Replicas}
	var weightedKm float64
	for v := range e.cat.Videos {
		video := &e.cat.Videos[v]
		if video.TotalViews == 0 {
			continue
		}
		sites, err := e.Placements(s, v)
		if err != nil {
			return Result{}, err
		}
		for c, n := range video.TrueViews {
			if n == 0 {
				continue
			}
			d := e.nearestKm(geo.CountryID(c), sites)
			w := float64(n)
			weightedKm += w * d
			res.Views += w
			if d == 0 {
				res.LocalFraction += w
			}
		}
	}
	if res.Views > 0 {
		res.MeanKm = weightedKm / res.Views
		res.LocalFraction /= res.Views
	}
	return res, nil
}

func (e *Evaluator) nearestKm(from geo.CountryID, sites []geo.CountryID) float64 {
	best := -1.0
	for _, s := range sites {
		d := e.rec.dm[from][s]
		if best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}
