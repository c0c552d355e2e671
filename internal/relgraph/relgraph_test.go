package relgraph

import (
	"testing"

	"viewstags/internal/geo"
	"viewstags/internal/synth"
	"viewstags/internal/xrand"
)

var (
	cachedCat   *synth.Catalog
	cachedGraph *Graph
)

func testGraph(t *testing.T) (*synth.Catalog, *Graph) {
	t.Helper()
	if cachedGraph == nil {
		cat, err := synth.Generate(synth.DefaultConfig(3000))
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(cat, xrand.NewSource(5), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedCat, cachedGraph = cat, g
	}
	return cachedCat, cachedGraph
}

func TestBuildShape(t *testing.T) {
	cat, g := testGraph(t)
	if g.N() != len(cat.Videos) {
		t.Fatalf("graph has %d vertices", g.N())
	}
	for i := 0; i < g.N(); i++ {
		rel := g.Related(i)
		if len(rel) != DefaultConfig().OutDegree {
			t.Fatalf("video %d out-degree %d, want %d", i, len(rel), DefaultConfig().OutDegree)
		}
		seen := make(map[int32]bool, len(rel))
		for _, j := range rel {
			if j < 0 || int(j) >= g.N() {
				t.Fatalf("video %d: related index %d out of range", i, j)
			}
			if int(j) == i {
				t.Fatalf("video %d: self-loop", i)
			}
			if seen[j] {
				t.Fatalf("video %d: duplicate related %d", i, j)
			}
			seen[j] = true
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(cat, xrand.NewSource(9), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cat, xrand.NewSource(9), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		ra, rb := a.Related(i), b.Related(i)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("graph not deterministic at %d/%d", i, j)
			}
		}
	}
}

// reachableFrom runs a BFS from the seeds and returns the number of
// distinct vertices visited (seeds included) and the depth reached.
func reachableFrom(g *Graph, seeds []int) (visited, depth int) {
	mark := make([]bool, g.N())
	var frontier []int32
	for _, s := range seeds {
		if !mark[s] {
			mark[s] = true
			frontier = append(frontier, int32(s))
			visited++
		}
	}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Related(int(u)) {
				if !mark[v] {
					mark[v] = true
					visited++
					next = append(next, v)
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}
	return visited, depth
}

func TestSnowballCoverage(t *testing.T) {
	cat, g := testGraph(t)
	// Paper-style seeds: top 10 per seed country.
	seedSet := map[int]bool{}
	for _, code := range geo.YouTube2011Locales {
		for _, v := range cat.TopInCountry(cat.World.MustByCode(code), 10) {
			seedSet[v] = true
		}
	}
	seeds := make([]int, 0, len(seedSet))
	for v := range seedSet {
		seeds = append(seeds, v)
	}
	visited, depth := reachableFrom(g, seeds)
	frac := float64(visited) / float64(g.N())
	// A few sink vertices are unreachable in a 3k-video graph; the giant
	// component must still dominate.
	if frac < 0.90 {
		t.Fatalf("snowball reaches only %.1f%% of the catalog", 100*frac)
	}
	if depth == 0 {
		t.Fatal("BFS depth 0; graph has no expansion")
	}
}

func TestPopularVideosAreCited(t *testing.T) {
	cat, g := testGraph(t)
	top := synth.TopK(len(cat.Videos), 1, func(i int) (int64, bool) { return cat.Videos[i].TotalViews, true })[0]
	cited := 0
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Related(i) {
			if int(j) == top {
				cited++
				break
			}
		}
	}
	// Preferential attachment should cite the head video from a
	// substantial fraction of all related lists.
	if cited < g.N()/100 {
		t.Fatalf("top video cited from only %d/%d lists", cited, g.N())
	}
}

func TestCoTagEdgesExist(t *testing.T) {
	cat, g := testGraph(t)
	tagIndex := cat.TagIndex()
	shares := 0
	checked := 0
	for i := 0; i < 200; i++ {
		v := &cat.Videos[i]
		if len(v.TagIDs) == 0 {
			continue
		}
		vTags := map[int]bool{}
		for _, tg := range v.TagIDs {
			vTags[tg] = true
		}
		for _, j := range g.Related(i) {
			checked++
			for _, tg := range cat.Videos[j].TagIDs {
				if vTags[tg] {
					shares++
					break
				}
			}
		}
	}
	_ = tagIndex
	if checked == 0 || float64(shares)/float64(checked) < 0.2 {
		t.Fatalf("only %d/%d related entries share a tag; co-tag phase ineffective", shares, checked)
	}
}

func TestTinyCatalog(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(cat, xrand.NewSource(1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := len(g.Related(i)); got != 2 {
			t.Fatalf("tiny catalog out-degree %d, want 2", got)
		}
	}
}

func TestSingleVideoCatalog(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(cat, xrand.NewSource(1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Related(0)) != 0 {
		t.Fatal("single video should have empty related list")
	}
}

func TestConfigErrors(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Config{
		"zero degree":  {OutDegree: 0, TagFrac: 0.5, CandidatesPerTag: 2},
		"bad tag frac": {OutDegree: 5, TagFrac: 1.5, CandidatesPerTag: 2},
		"zero cand":    {OutDegree: 5, TagFrac: 0.5, CandidatesPerTag: 0},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Build(cat, xrand.NewSource(1), cfg); err == nil {
				t.Fatalf("config %q accepted", name)
			}
		})
	}
}
