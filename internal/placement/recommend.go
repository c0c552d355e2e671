package placement

import (
	"fmt"
	"sort"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
)

// Recommender answers the online form of the placement question: a
// fresh upload arrives with an uploader country and (optionally) a
// tag-predicted demand field — where should its replicas go, right now?
// It is the one place each strategy is written: the offline Evaluator
// scores its placements through Recommend. StrategyOracle is refused
// here, as it needs ground-truth demand no serving system has at upload
// time; the Evaluator asks for it as StrategyPredicted with true demand.
type Recommender struct {
	world        *geo.World
	dm           [][]float64
	popularOrder []geo.CountryID
}

// NewRecommender builds a recommender over a world.
func NewRecommender(world *geo.World) *Recommender {
	return &Recommender{
		world:        world,
		dm:           world.DistanceMatrix(),
		popularOrder: trafficOrder(world),
	}
}

// Recommend returns the replica countries for one upload. demand is the
// predicted view distribution (used by StrategyPredicted; nil or
// zero-mass falls back to the home heuristic). It returns an error for an
// invalid strategy, replica count, or upload country.
func (r *Recommender) Recommend(s Strategy, upload geo.CountryID, demand []float64, replicas int) ([]geo.CountryID, error) {
	if replicas < 1 || replicas > r.world.N() {
		return nil, fmt.Errorf("placement: replicas %d outside [1, %d]", replicas, r.world.N())
	}
	if int(upload) < 0 || int(upload) >= r.world.N() {
		return nil, fmt.Errorf("placement: upload country %d out of range", int(upload))
	}
	switch s {
	case StrategyHome:
		// All replicas at home degenerate to one distinct site; fill the
		// remainder with the nearest countries to home (a realistic
		// "regional replicas" default).
		return nearestCountries(r.dm, upload, replicas), nil
	case StrategyPopular:
		out := make([]geo.CountryID, replicas)
		copy(out, r.popularOrder[:replicas])
		return out, nil
	case StrategyPredicted:
		if demand == nil || dist.Sum(demand) <= 0 {
			return nearestCountries(r.dm, upload, replicas), nil
		}
		if len(demand) != r.world.N() {
			return nil, fmt.Errorf("placement: demand has %d entries for %d countries", len(demand), r.world.N())
		}
		return topCountries(demand, replicas), nil
	case StrategyOracle:
		return nil, fmt.Errorf("placement: StrategyOracle needs ground-truth demand, unavailable at upload time")
	default:
		return nil, fmt.Errorf("placement: unknown strategy %d", int(s))
	}
}

// ParseStrategy resolves a strategy name as used on the wire
// ("home", "popular", "predicted", "oracle").
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{StrategyHome, StrategyPopular, StrategyPredicted, StrategyOracle} {
		if s.String() == name {
			return s, nil
		}
	}
	return StrategyInvalid, fmt.Errorf("placement: unknown strategy %q", name)
}

// trafficOrder returns all countries sorted by traffic share descending
// (id tiebreak) — the ranking behind StrategyPopular.
func trafficOrder(world *geo.World) []geo.CountryID {
	traffic := world.Traffic()
	order := make([]geo.CountryID, world.N())
	for i := range order {
		order[i] = geo.CountryID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := traffic[order[a]], traffic[order[b]]
		if ta != tb {
			return ta > tb
		}
		return order[a] < order[b]
	})
	return order
}

// nearestCountries returns home plus the r−1 geographically nearest
// countries under the given distance matrix.
func nearestCountries(dm [][]float64, home geo.CountryID, r int) []geo.CountryID {
	n := len(dm)
	order := make([]geo.CountryID, 0, n)
	for c := 0; c < n; c++ {
		order = append(order, geo.CountryID(c))
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := dm[home][order[a]], dm[home][order[b]]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	return order[:r]
}
