// Package relgraph builds the related-videos graph the paper's crawler
// walked: for every video, the ordered list of "related" videos YouTube
// would surface next to it (§2: "breadth-first snowball sampling of the
// graph of related videos").
//
// YouTube's true relatedness signal is private; the generator mimics its
// two well-documented ingredients: content similarity (here: shared
// tags, weighted toward rarer tags) and popularity preferential
// attachment (popular videos appear in many related lists). The mix
// produces the property snowball crawls rely on — a giant, rapidly
// mixing component reachable from any popular seed.
package relgraph

import (
	"fmt"

	"viewstags/internal/synth"
	"viewstags/internal/xrand"
)

// Config parameterizes graph construction.
type Config struct {
	// OutDegree is the related-list length per video (YouTube's 2011
	// sidebar showed ~20 entries).
	OutDegree int
	// TagFrac is the fraction of each related list filled by co-tag
	// candidates; the rest comes from popularity preferential attachment.
	TagFrac float64
	// CandidatesPerTag bounds how many co-tag candidates are drawn per
	// tag, keeping construction near-linear in catalog size.
	CandidatesPerTag int
}

// DefaultConfig returns the standard graph parameters.
func DefaultConfig() Config {
	return Config{OutDegree: 20, TagFrac: 0.6, CandidatesPerTag: 6}
}

// Graph is the immutable related-videos graph.
type Graph struct {
	adj [][]int32
}

// Build constructs the related graph for a catalog, deterministically
// from src. It returns an error on invalid configuration.
func Build(cat *synth.Catalog, src *xrand.Source, cfg Config) (*Graph, error) {
	if cfg.OutDegree <= 0 {
		return nil, fmt.Errorf("relgraph: non-positive out-degree %d", cfg.OutDegree)
	}
	if cfg.TagFrac < 0 || cfg.TagFrac > 1 {
		return nil, fmt.Errorf("relgraph: TagFrac %v outside [0,1]", cfg.TagFrac)
	}
	if cfg.CandidatesPerTag <= 0 {
		return nil, fmt.Errorf("relgraph: non-positive CandidatesPerTag %d", cfg.CandidatesPerTag)
	}
	n := len(cat.Videos)
	g := &Graph{adj: make([][]int32, n)}
	if n == 1 {
		g.adj[0] = []int32{}
		return g, nil
	}

	tagIndex := cat.TagIndex()

	// Popularity sampler: videos weighted by total views, so heads
	// dominate related lists the way they dominate YouTube's.
	weights := make([]float64, n)
	for i := range cat.Videos {
		weights[i] = float64(cat.Videos[i].TotalViews)
	}
	popCat := xrand.NewCategorical(src.Fork("popularity"), weights)

	pick := src.Fork("pick")
	for i := 0; i < n; i++ {
		g.adj[i] = buildList(cat, tagIndex, popCat, pick, cfg, i)
	}
	return g, nil
}

// buildList assembles one video's related list: co-tag candidates first
// (rarer tags weighted up via per-tag candidate quotas), then popularity
// draws, deduplicated, self-loops removed.
func buildList(cat *synth.Catalog, tagIndex map[int][]int, popCat *xrand.Categorical, src *xrand.Source, cfg Config, i int) []int32 {
	n := len(cat.Videos)
	want := cfg.OutDegree
	if want > n-1 {
		want = n - 1
	}
	out := make([]int32, 0, want)
	seen := map[int32]bool{int32(i): true}

	add := func(j int) bool {
		if len(out) >= want {
			return false
		}
		k := int32(j)
		if seen[k] {
			return true
		}
		seen[k] = true
		out = append(out, k)
		return true
	}

	// Phase 1: co-tag candidates.
	tagBudget := int(cfg.TagFrac * float64(want))
	v := &cat.Videos[i]
	for _, t := range v.TagIDs {
		if len(out) >= tagBudget {
			break
		}
		peers := tagIndex[t]
		if len(peers) <= 1 {
			continue
		}
		draws := cfg.CandidatesPerTag
		if draws > len(peers) {
			draws = len(peers)
		}
		for d := 0; d < draws && len(out) < tagBudget; d++ {
			add(peers[src.Intn(len(peers))])
		}
	}

	// Phase 2: popularity preferential attachment fills the remainder.
	// Bounded attempts guard against tiny catalogs where the sampler
	// keeps returning already-seen videos.
	for attempts := 0; len(out) < want && attempts < 30*want; attempts++ {
		add(popCat.Draw())
	}
	// Phase 3 (fallback): deterministic sweep if still short.
	for j := 0; len(out) < want && j < n; j++ {
		add(j)
	}
	return out
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// Related returns video i's related list as catalog indices. The
// returned slice is shared; callers must not modify it.
func (g *Graph) Related(i int) []int32 { return g.adj[i] }
