// Package pipeline wires the full paper pipeline — synthetic world (or a
// crawled dataset file) → §2 filter → Alexa estimate → reconstruction →
// tag analysis — behind one call, shared by the binaries, the examples
// and the benchmark harness.
//
// It has two shapes over the same per-record steps. The From* entry
// points run them stage by stage and keep every stage's output (catalog,
// records, dense vectors, per-video fields) for the evaluators and
// examples that read them; the Boot* entry points run them record by
// record and keep only the per-tag aggregate a serving snapshot is built
// from, so a daemon's boot peaks at its slice of the vocabulary plus one
// video of scratch.
package pipeline

import (
	"fmt"

	"viewstags/internal/alexa"
	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// Result bundles the pipeline's artifacts.
type Result struct {
	World    *geo.World
	Catalog  *synth.Catalog // nil when the input was a dataset file
	Clean    *dataset.Clean
	Pyt      []float64
	Analysis *tagviews.Analysis
}

// FromSynthetic generates a catalog of the given size, extracts its
// crawl records, filters, estimates traffic, and builds the tag
// analysis. alexaCfg controls estimator fidelity (E4's knob).
func FromSynthetic(videos int, seed uint64, alexaCfg alexa.Config) (*Result, error) {
	cfg := synth.DefaultConfig(videos)
	cfg.Seed = seed
	return FromSyntheticConfig(cfg, alexaCfg)
}

// FromSyntheticConfig is FromSynthetic with full control over the
// generator — the entry point for ablations that vary world-model knobs
// (topic drift, mixture weights, pathology rates).
func FromSyntheticConfig(cfg synth.Config, alexaCfg alexa.Config) (*Result, error) {
	cat, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: generate: %w", err)
	}
	return fromRecords(cat.World, cat, cat.Records(), alexaCfg)
}

// FromFile loads a crawled JSONL dataset and runs the same pipeline over
// the default world.
func FromFile(path string, alexaCfg alexa.Config) (*Result, error) {
	records, err := dataset.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: load: %w", err)
	}
	return fromRecords(geo.DefaultWorld(), nil, records, alexaCfg)
}

func fromRecords(world *geo.World, cat *synth.Catalog, records []dataset.Record, alexaCfg alexa.Config) (*Result, error) {
	clean := dataset.Filter(world, records)
	pyt, err := alexa.Estimate(world, alexaCfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: alexa: %w", err)
	}
	an, err := tagviews.Build(world, clean.Records, clean.Pop, pyt)
	if err != nil {
		return nil, fmt.Errorf("pipeline: analysis: %w", err)
	}
	return &Result{World: world, Catalog: cat, Clean: clean, Pyt: pyt, Analysis: an}, nil
}

// Boot is what a serving daemon keeps of the pipeline: the per-tag
// aggregate over the tags it owns, the §2 audit trail and, on a
// standalone node, the served form of the catalog.
type Boot struct {
	World     *geo.World
	Served    *synth.Served // nil unless BootSynthetic was asked to keep it
	Report    dataset.FilterReport
	Aggregate *tagviews.Aggregate
	Fields    int // videos whose view field BootSynthetic drew (0 from a file)
}

// BootSynthetic is FromSynthetic in one streaming pass: each video is
// generated, converted to its crawl record, filtered, reconstructed,
// added to the sums of the tags owns admits (nil = all) and dropped. Same
// videos and the same accumulation order as the retaining path, so
// profilestore.BuildAggregate(boot.Aggregate, nil) — which consumes the
// aggregate: its sums become the snapshot's vectors — exports bit for bit
// what profilestore.BuildOwned(res.Analysis, owns) does. keepServed
// collects, from this same pass, what /v1/preload reads of each video
// (never its ground truth) into Boot.Served — which refers to neither the
// generator nor its vocabulary, so both are garbage once this returns.
//
// The generator draws the view field of only the videos the pass reads:
// tagged, with a valid popularity vector, and carrying a tag owns admits.
// A tagged valid video with no such tag is counted as the filter would
// count it and adds to no sum, so it is not built either (DESIGN.md §2).
func BootSynthetic(videos int, seed uint64, alexaCfg alexa.Config, owns func(tag string) bool, keepServed bool) (*Boot, error) {
	cfg := synth.DefaultConfig(videos)
	cfg.Seed = seed
	gen, err := synth.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: generate: %w", err)
	}
	defer gen.Close()
	cat := gen.Catalog()
	// owned[id] is owns of tag id's name, asked once per vocabulary entry
	// rather than once per tag per video; nil, like owns, is every tag.
	var owned []bool
	if owns != nil {
		owned = make([]bool, cat.Vocab.N())
		for id := range owned {
			owned[id] = owns(cat.Vocab.Name(id))
		}
	}
	ownsAny := func(tagIDs []int) bool {
		if owned == nil {
			return true
		}
		for _, id := range tagIDs {
			if owned[id] {
				return true
			}
		}
		return false
	}
	gen.DrawReadFields(ownsAny)
	var served *synth.Served
	if keepServed {
		served = cat.NewServed(cfg.Videos)
	}
	fields := 0
	b, err := boot(cat.World, alexaCfg, owns, func(p *pass) error {
		var v synth.Video
		var rec dataset.Record
		for gen.Next(&v) {
			if served != nil {
				served.Add(&v)
			}
			if len(v.TrueViews) > 0 {
				fields++
			}
			if v.PopState == synth.PopStateOK && len(v.TagIDs) > 0 && !ownsAny(v.TagIDs) {
				// A tagged video's valid vector always densifies, so the
				// filter would keep it, and no tag of it is summed here.
				p.keepUnowned()
				continue
			}
			cat.RecordInto(&rec, &v)
			p.admit(&rec)
		}
		return nil
	})
	if err == nil {
		b.Served, b.Fields = served, fields
	}
	return b, err
}

// BootFile is FromFile in one streaming pass over the default world: the
// file is decoded a line at a time and never held. A malformed line
// fails the boot.
func BootFile(path string, alexaCfg alexa.Config, owns func(tag string) bool) (*Boot, error) {
	return boot(geo.DefaultWorld(), alexaCfg, owns, func(p *pass) error {
		return dataset.ScanFile(path, func(rec *dataset.Record) error { // its errors name the file and the line
			p.admit(rec)
			return nil
		})
	})
}

// pass is the accounting of one non-retaining boot: each record its source
// hands over is admitted (or counted as dropped) and aggregated before the
// source produces the next, and is not kept.
type pass struct {
	world   *geo.World
	report  *dataset.FilterReport
	agg     *tagviews.Aggregator
	scratch []int // the admitted record's dense vector
}

// admit runs rec through the §2 filter and adds it to the aggregate if kept.
func (p *pass) admit(rec *dataset.Record) {
	if pop, ok := p.report.Admit(p.world, rec, p.scratch); ok {
		p.agg.Add(rec, pop)
	}
}

// keepUnowned counts, without the record, one that admit would keep and
// add to no tag of the slice: the report and the record count read as if
// admit had seen it.
func (p *pass) keepUnowned() {
	p.report.CountKept()
	p.agg.AddUnowned()
}

// boot runs the non-retaining pass over what source hands its pass.
func boot(world *geo.World, alexaCfg alexa.Config, owns func(string) bool, source func(*pass) error) (*Boot, error) {
	pyt, err := alexa.Estimate(world, alexaCfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: alexa: %w", err)
	}
	agg, err := tagviews.NewAggregator(world, pyt, owns)
	if err != nil {
		return nil, fmt.Errorf("pipeline: analysis: %w", err)
	}
	b := &Boot{World: world}
	if err := source(&pass{world: world, report: &b.Report, agg: agg, scratch: make([]int, world.N())}); err != nil {
		return nil, err
	}
	b.Aggregate = agg.Finish()
	return b, nil
}
