package tagviews

import (
	"fmt"
	"runtime"
	"sync"

	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/reconstruct"
)

// Aggregator folds filtered records into an Aggregate one at a time and
// keeps none of them: each record's view field is reconstructed into one
// scratch vector, added to its tags' sums (Eq. 3) and overwritten by the
// next. With an owns filter only the admitted tags are summed — a cluster
// shard's slice — while the record count stays the whole corpus's, which
// is what keeps IDF identical across shards. Its fold is the one
// aggregation loop in this package; Builder, Build and BuildParallel are
// callers that also keep the records and fields.
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
// record that fails reconstruction is counted and skipped. Neither rec
// nor pop is retained.
func (g *Aggregator) Add(rec *dataset.Record, pop []int) {
	field, err := reconstruct.ViewsFloatInto(g.field, pop, g.agg.Pyt, float64(rec.TotalViews))
	if err != nil {
		field = nil
	}
	g.fold(rec, field)
}

// fold adds a record whose view field was reconstructed by the caller
// (nil = reconstruction failed) to its tags' sums.
func (g *Aggregator) fold(rec *dataset.Record, field []float64) {
	a := &g.agg
	a.n++
	if field == nil {
		a.skipped++
		return
	}
	for _, t := range rec.Tags {
		if g.owns != nil && !g.owns(t) {
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
		s.TotalViews += float64(rec.TotalViews)
	}
}

// Finish seals the aggregator into its Aggregate — a copy, so holding it
// does not hold the owns filter or the scratch. The aggregator must not
// be used afterwards.
func (g *Aggregator) Finish() *Aggregate {
	a := g.agg
	return &a
}

// Builder is the retaining form of Aggregator: records are folded in one
// at a time and kept with their fields, partial builders merge
// associatively, and Finish produces the same Analysis a batch Build
// would. This is how a paper-scale dataset (691k records) is aggregated
// across cores or across machines.
type Builder struct {
	Aggregator
	records []dataset.Record
	fields  [][]float64
}

// NewBuilder returns an empty builder over the given world and traffic
// estimate.
func NewBuilder(world *geo.World, pyt []float64) (*Builder, error) {
	g, err := NewAggregator(world, pyt, nil)
	if err != nil {
		return nil, err
	}
	return &Builder{Aggregator: *g}, nil
}

// Add folds one filtered record (with its dense popularity vector) into
// the builder. Records that fail reconstruction are counted and skipped.
func (b *Builder) Add(rec dataset.Record, pop []int) {
	// Not Aggregator.Add: the field is kept, so it cannot be scratch.
	field, err := reconstruct.ViewsFloat(pop, b.agg.Pyt, float64(rec.TotalViews))
	if err != nil {
		field = nil
	}
	b.records = append(b.records, rec)
	b.fields = append(b.fields, field)
	b.fold(&rec, field)
}

// Merge folds another builder's partial state into b. The other builder
// must share the same world and traffic estimate; it must not be used
// afterwards.
func (b *Builder) Merge(other *Builder) error {
	a, o := &b.agg, &other.agg
	if o.World != a.World {
		return fmt.Errorf("tagviews: merging builders over different worlds")
	}
	for c := range a.Pyt {
		if a.Pyt[c] != o.Pyt[c] {
			return fmt.Errorf("tagviews: merging builders with different traffic estimates")
		}
	}
	b.records = append(b.records, other.records...)
	b.fields = append(b.fields, other.fields...)
	a.n += o.n
	a.skipped += o.skipped
	for t, from := range o.tags {
		s := a.tags[t]
		if s == nil {
			a.tags[t] = from
			continue
		}
		for c, x := range from.Views {
			s.Views[c] += x
		}
		s.Videos += from.Videos
		s.TotalViews += from.TotalViews
	}
	return nil
}

// Finish seals the builder into an Analysis. The builder must not be
// used afterwards.
func (b *Builder) Finish() *Analysis {
	return &Analysis{Aggregate: b.agg, records: b.records, fields: b.fields}
}

// BuildParallel is Build with the reconstruction phase fanned out over
// workers (default: GOMAXPROCS). Reconstruction (Eq. 1–2, per record) is
// embarrassingly parallel; the tag aggregation (Eq. 3) stays sequential
// because it is bound by the shared tag map — sharding it and merging
// per-shard maps costs more than it saves whenever the tag vocabulary is
// comparable to the record count, which is exactly the paper's regime
// (705k tags over 691k videos). Fields are computed per record and summed
// in record order whatever the worker count, so results are bitwise
// identical to Build; the analysis shares the caller's records slice.
func BuildParallel(world *geo.World, records []dataset.Record, pop [][]int, pyt []float64, workers int) (*Analysis, error) {
	if len(records) != len(pop) {
		return nil, fmt.Errorf("tagviews: %d records but %d pop vectors", len(records), len(pop))
	}
	b, err := NewBuilder(world, pyt)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(records) {
		workers = len(records)
	}
	if workers < 1 {
		workers = 1
	}

	// Phase 1: reconstruction into a positional field table, one
	// contiguous chunk of records per worker.
	b.records, b.fields = records, make([][]float64, len(records))
	var wg sync.WaitGroup
	chunk := (len(records) + workers - 1) / workers
	for lo := 0; lo < len(records); lo += chunk {
		hi := lo + chunk
		if hi > len(records) {
			hi = len(records)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f, err := reconstruct.ViewsFloat(pop[i], pyt, float64(records[i].TotalViews))
				if err != nil {
					continue // nil field marks the skip
				}
				b.fields[i] = f
			}
		}(lo, hi)
	}
	wg.Wait()

	// Phase 2: sequential aggregation over precomputed fields.
	for i := range records {
		b.fold(&records[i], b.fields[i])
	}
	return b.Finish(), nil
}
