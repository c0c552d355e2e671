package tagviews

import (
	"fmt"

	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/reconstruct"
)

// Aggregator folds filtered records into an Aggregate one at a time and
// keeps none of them: each record's view field is reconstructed into one
// scratch vector, rounded (RoundViews), added to its tags' sums (Eq. 3)
// and overwritten by the next. With an owns filter only the admitted tags
// are summed — a cluster shard's slice — while the record count stays the
// whole corpus's, which
// is what keeps IDF identical across shards. Its Add is the one
// aggregation loop in this package; Build is the caller that also keeps
// the records.
type Aggregator struct {
	agg   Aggregate
	owns  func(name string) bool // nil = every tag
	field []float64              // Add's scratch
}

// NewAggregator returns an empty aggregator over the given world and
// traffic estimate. A nil owns keeps every tag.
func NewAggregator(world *geo.World, pyt []float64, owns func(name string) bool) (*Aggregator, error) {
	if len(pyt) != world.N() {
		return nil, fmt.Errorf("tagviews: traffic estimate has %d entries for %d countries", len(pyt), world.N())
	}
	return &Aggregator{
		agg: Aggregate{
			World: world,
			Pyt:   append([]float64(nil), pyt...),
			tags:  make(map[string]*TagSums),
		},
		owns:  owns,
		field: make([]float64, world.N()),
	}, nil
}

// Add folds one filtered record (with its dense popularity vector). A
// record that fails reconstruction, or carries no tag summed here, is
// counted and adds to no tag; only the first is reconstructed. Neither rec
// nor pop is retained.
func (g *Aggregator) Add(rec *dataset.Record, pop []int) {
	a := &g.agg
	a.n++
	// A record with no summed tag adds nothing, so it is not reconstructed.
	// The fold starts at the first summed tag: owns is asked once a tag.
	first := 0
	for g.owns != nil && first < len(rec.Tags) && !g.owns(rec.Tags[first]) {
		first++
	}
	if first == len(rec.Tags) {
		return
	}
	field, err := reconstruct.ViewsFloatInto(g.field, pop, a.Pyt, float64(rec.TotalViews))
	if err != nil {
		return
	}
	for c, x := range field {
		field[c] = RoundViews(x)
	}
	for i, t := range rec.Tags[first:] {
		if i > 0 && g.owns != nil && !g.owns(t) {
			continue
		}
		s := a.tags[t]
		if s == nil {
			s = &TagSums{Views: make([]float64, a.World.N())}
			a.tags[t] = s
		}
		for c, x := range field {
			s.Views[c] += x
		}
		s.Videos++
	}
}

// AddUnowned counts one filtered record none of whose tags is summed here,
// as Add would, without the record: its producer knows the tags and need
// not build the rest (pipeline.BootSynthetic on a shard).
func (g *Aggregator) AddUnowned() { g.agg.n++ }

// Finish seals the aggregator into its Aggregate — a copy, so holding it
// does not hold the owns filter or the scratch. The aggregator must not
// be used afterwards.
func (g *Aggregator) Finish() *Aggregate {
	a := g.agg
	return &a
}

// Build reconstructs every record's view field with the given traffic
// estimate and aggregates tag view fields (Eq. 3) through one Aggregator,
// in record order, keeping the records for the per-video accessors; the
// analysis shares the caller's records slice. Records whose popularity
// vector carries no signal are counted and add to no tag (the §2 filter
// removes them up front, so normally there are none).
func Build(world *geo.World, records []dataset.Record, pop [][]int, pyt []float64) (*Analysis, error) {
	if len(records) != len(pop) {
		return nil, fmt.Errorf("tagviews: %d records but %d pop vectors", len(records), len(pop))
	}
	g, err := NewAggregator(world, pyt, nil)
	if err != nil {
		return nil, err
	}
	for i := range records {
		g.Add(&records[i], pop[i])
	}
	return &Analysis{Aggregate: *g.Finish(), records: records}, nil
}
