package synth

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"viewstags/internal/dist"
	"viewstags/internal/mapchart"
)

// smallCatalog memoizes a 4000-video catalog across tests in this
// package; generation is deterministic so sharing is safe for read-only
// assertions.
var smallCatalog *Catalog

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	if smallCatalog == nil {
		cat, err := Generate(DefaultConfig(4000))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		smallCatalog = cat
	}
	return smallCatalog
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Videos {
		va, vb := a.Videos[i], b.Videos[i]
		if va.ID != vb.ID || va.TotalViews != vb.TotalViews || va.Upload != vb.Upload ||
			va.PopState != vb.PopState || len(va.TagIDs) != len(vb.TagIDs) {
			t.Fatalf("catalog not deterministic at video %d", i)
		}
	}
}

func TestVideoIDShape(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 50000; i++ {
		id := videoID(1, i)
		if len(id) != 11 {
			t.Fatalf("id %q has length %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
	}
}

func TestVideoIDAlphabetProperty(t *testing.T) {
	f := func(seed uint64, idx uint16) bool {
		id := videoID(seed, int(idx))
		if len(id) != 11 {
			return false
		}
		for i := 0; i < len(id); i++ {
			found := false
			for j := 0; j < len(idAlphabet); j++ {
				if id[i] == idAlphabet[j] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrueViewsSumToTotal(t *testing.T) {
	cat := testCatalog(t)
	for i := range cat.Videos {
		v := &cat.Videos[i]
		var sum int64
		for _, n := range v.TrueViews {
			if n < 0 {
				t.Fatalf("video %d has negative country views", i)
			}
			sum += n
		}
		if sum != v.TotalViews {
			t.Fatalf("video %d: country views sum %d != total %d", i, sum, v.TotalViews)
		}
	}
}

func TestPathologyRatesApproximate(t *testing.T) {
	cat := testCatalog(t)
	s := cat.Stats()
	n := float64(s.Videos)
	cfg := cat.Config

	untagged := float64(s.Untagged) / n
	if math.Abs(untagged-cfg.UntaggedRate) > 0.006 {
		t.Errorf("untagged rate %v, want ~%v", untagged, cfg.UntaggedRate)
	}
	badPop := float64(s.PopEmpty+s.PopCorrupt) / n
	wantBad := cfg.PopEmptyRate + cfg.PopCorruptRate
	if math.Abs(badPop-wantBad) > 0.03 {
		t.Errorf("bad pop-vector rate %v, want ~%v", badPop, wantBad)
	}
	if s.PopOK+s.PopEmpty+s.PopCorrupt != s.Videos {
		t.Error("pop states do not partition the catalog")
	}
}

func TestPopVectorConsistency(t *testing.T) {
	cat := testCatalog(t)
	for i := range cat.Videos {
		v := &cat.Videos[i]
		switch v.PopState {
		case PopStateOK:
			if len(v.PopVector) != cat.World.N() {
				t.Fatalf("video %d: ok vector has length %d", i, len(v.PopVector))
			}
			maxV := 0
			for _, x := range v.PopVector {
				if x < 0 || x > mapchart.MaxIntensity {
					t.Fatalf("video %d: intensity %d out of range", i, x)
				}
				if x > maxV {
					maxV = x
				}
			}
			if v.TotalViews > 0 && maxV != mapchart.MaxIntensity {
				t.Fatalf("video %d: max intensity %d, want %d (K(v) normalization)", i, maxV, mapchart.MaxIntensity)
			}
		case PopStateEmpty:
			if v.PopVector != nil {
				t.Fatalf("video %d: empty state with vector", i)
			}
		case PopStateCorrupt:
			for _, x := range v.PopVector {
				if x != 0 {
					t.Fatalf("video %d: corrupt vector carries data", i)
				}
			}
		default:
			t.Fatalf("video %d: unset pop state", i)
		}
	}
}

func TestViewsHeavyTailed(t *testing.T) {
	cat := testCatalog(t)
	top := TopK(len(cat.Videos), len(cat.Videos), func(i int) (int64, bool) { return cat.Videos[i].TotalViews, true })
	head := cat.Videos[top[0]].TotalViews
	median := cat.Videos[top[len(top)/2]].TotalViews
	if head < 100*median {
		t.Fatalf("head views %d not >> median %d; view model lost its tail", head, median)
	}
	if head > cat.Config.ViewsMax {
		t.Fatalf("head views %d exceed configured max", head)
	}
	for _, i := range top {
		if cat.Videos[i].TotalViews < cat.Config.ViewsMin {
			t.Fatalf("video below configured min views")
		}
	}
}

func TestTopInCountrySorted(t *testing.T) {
	cat := testCatalog(t)
	br := cat.World.MustByCode("BR")
	top := cat.TopInCountry(br, 10)
	for i := 1; i < len(top); i++ {
		if cat.Videos[top[i-1]].TrueViews[br] < cat.Videos[top[i]].TrueViews[br] {
			t.Fatal("TopInCountry not descending")
		}
	}
	// The #1 Brazilian video should have substantial Brazilian views.
	if cat.Videos[top[0]].TrueViews[br] == 0 {
		t.Fatal("top Brazilian video has zero BR views")
	}
}

// TestTopKTies pins the one ordering every top list shares, against a
// full sort: score descending, lower index first among equals,
// non-candidates left out, for k = 0, 1, in between, n and beyond.
func TestTopKTies(t *testing.T) {
	scores := []float64{3, 7, 3, -1, 7, 0, 3, 9, 7, 3, 0, 9}
	skip := map[int]bool{3: true, 10: true}
	score := func(i int) (float64, bool) { return scores[i], !skip[i] }
	var want []int
	for i := range scores {
		if !skip[i] {
			want = append(want, i)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return scores[want[a]] > scores[want[b]] })
	if !reflect.DeepEqual(want, []int{7, 11, 1, 4, 8, 0, 2, 6, 9, 5}) {
		t.Fatalf("reference ranking %v", want)
	}
	n := len(scores)
	for _, k := range []int{-1, 0, 1, 2, 3, 5, len(want), n, n + 5} {
		got := TopK(n, k, score)
		cut := max(0, min(k, len(want)))
		if len(got) != cut || (cut > 0 && !reflect.DeepEqual(got, want[:cut])) {
			t.Errorf("TopK(k=%d) = %v, want %v", k, got, want[:cut])
		}
	}
	// All equal: the first k indices, in order, whatever the heap did.
	got := TopK(100, 10, func(int) (int64, bool) { return 5, true })
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("TopK over equal scores = %v, want the ten lowest indices in order", got)
	}
}

func TestByID(t *testing.T) {
	cat := testCatalog(t)
	want := &cat.Videos[42]
	got, ok := cat.ByID(want.ID)
	if !ok || got.Index != 42 {
		t.Fatalf("ByID(%q) = %v,%v", want.ID, got, ok)
	}
	if _, ok := cat.ByID("AAAAAAAAAAA"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

// TestByIDConcurrentFirstUse: the first lookups on a fresh catalog arrive
// together — what a parallel crawl does to cmd/ytsim — and must all be
// answered from one index. Run under -race.
func TestByIDConcurrentFirstUse(t *testing.T) {
	cat, err := Generate(DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := g; i < len(cat.Videos); i += 16 {
				if v, ok := cat.ByID(cat.Videos[i].ID); !ok || v.Index != i {
					t.Errorf("ByID(%q) = %v,%v, want video %d", cat.Videos[i].ID, v, ok, i)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

func TestUploadGravityShapesViews(t *testing.T) {
	cat := testCatalog(t)
	br := cat.World.MustByCode("BR")
	// Average BR view share for BR uploads vs US uploads.
	var brShare, usShare, brN, usN float64
	us := cat.World.MustByCode("US")
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if v.TotalViews == 0 {
			continue
		}
		share := float64(v.TrueViews[br]) / float64(v.TotalViews)
		switch v.Upload {
		case br:
			brShare += share
			brN++
		case us:
			usShare += share
			usN++
		}
	}
	if brN == 0 || usN == 0 {
		t.Skip("catalog too small to compare upload countries")
	}
	if brShare/brN < 3*(usShare/usN) {
		t.Fatalf("BR uploads BR-share %v not >> US uploads BR-share %v", brShare/brN, usShare/usN)
	}
}

func TestTagAffinityShapesViews(t *testing.T) {
	cat := testCatalog(t)
	fi := -1
	for i := 0; i < cat.Vocab.N(); i++ {
		if cat.Vocab.Name(i) == "favela" {
			fi = i
		}
	}
	if fi < 0 {
		t.Fatal("favela missing from vocabulary")
	}
	br := cat.World.MustByCode("BR")
	tagIdx := cat.TagIndex()
	vids := tagIdx[fi]
	if len(vids) == 0 {
		t.Skip("no favela-tagged videos at this scale")
	}
	var withTag float64
	for _, i := range vids {
		v := &cat.Videos[i]
		withTag += float64(v.TrueViews[br]) / float64(v.TotalViews)
	}
	withTag /= float64(len(vids))
	// Catalog-wide average BR share is ~ the traffic prior (a few %).
	prior := cat.World.TrafficOf(br)
	if withTag < 4*prior {
		t.Fatalf("favela videos BR share %v not >> prior %v", withTag, prior)
	}
}

func TestCatalogStatsConsistency(t *testing.T) {
	cat := testCatalog(t)
	s := cat.Stats()
	if s.Videos != len(cat.Videos) {
		t.Fatal("stats video count mismatch")
	}
	var total int64
	for i := range cat.Videos {
		total += cat.Videos[i].TotalViews
	}
	if s.TotalViews != total {
		t.Fatal("stats view total mismatch")
	}
	if s.UniqueTags == 0 || s.UniqueTags > cat.Vocab.N() {
		t.Fatalf("unique tags %d out of range", s.UniqueTags)
	}
}

func TestGenerateConfigErrors(t *testing.T) {
	bad := func(mutate func(*Config)) Config {
		cfg := DefaultConfig(100)
		mutate(&cfg)
		return cfg
	}
	cases := map[string]Config{
		"zero videos":    bad(func(c *Config) { c.Videos = 0 }),
		"alpha <= 1":     bad(func(c *Config) { c.ViewsAlpha = 1 }),
		"bad view range": bad(func(c *Config) { c.ViewsMax = c.ViewsMin }),
		"zero weights":   bad(func(c *Config) { c.WeightPrior, c.WeightGravity, c.WeightTags = 0, 0, 0 }),
		"bad rate":       bad(func(c *Config) { c.UntaggedRate = 1.5 }),
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Generate(cfg); err == nil {
				t.Fatalf("Generate accepted %s", name)
			}
		})
	}
}

func TestMixtureUntaggedFallsBackToPriorGravity(t *testing.T) {
	cat := testCatalog(t)
	// Untagged videos must still have a valid view field.
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if len(v.TagIDs) != 0 {
			continue
		}
		if dist.Sum(float64Slice(v.TrueViews)) == 0 && v.TotalViews > 0 {
			t.Fatalf("untagged video %d lost its views", i)
		}
	}
}

func float64Slice(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func TestBoundedParetoRange(t *testing.T) {
	cat := testCatalog(t)
	_ = cat
	f := func(u uint32) bool {
		src := newTestSource(uint64(u))
		v := boundedPareto(src, 1.75, 50, 1000000)
		return v >= 50 && v <= 1000000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTitlesNonEmpty(t *testing.T) {
	cat := testCatalog(t)
	for i := range cat.Videos {
		if cat.Videos[i].Title == "" {
			t.Fatalf("video %d has empty title", i)
		}
	}
}
