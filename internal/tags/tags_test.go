package tags

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/xrand"
)

func testVocab(t *testing.T, size int) *Vocabulary {
	t.Helper()
	w := geo.DefaultWorld()
	v, err := NewVocabulary(w, xrand.NewSource(1234), DefaultConfig(size))
	if err != nil {
		t.Fatalf("NewVocabulary: %v", err)
	}
	return v
}

// SampleTagSet is SampleTagSetInto with a fresh slice per set.
func (v *Vocabulary) SampleTagSet(src *xrand.Source, upload geo.CountryID, cfg TagSetConfig) []int {
	return v.SampleTagSetInto(nil, src, upload, cfg)
}

// affinity is AffinityInto with a fresh slice.
func affinity(v *Vocabulary, i int) []float64 {
	return v.AffinityInto(make([]float64, len(v.prior)), i)
}

func TestVocabularySizeAndUniqueNames(t *testing.T) {
	v := testVocab(t, 2000)
	if v.N() != 2000 {
		t.Fatalf("N = %d", v.N())
	}
	seen := make(map[string]bool, v.N())
	for i := 0; i < v.N(); i++ {
		name := v.Name(i)
		if name == "" {
			t.Fatalf("tag %d has empty name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate tag name %q", name)
		}
		seen[name] = true
	}
}

func TestVocabularyDeterministic(t *testing.T) {
	w := geo.DefaultWorld()
	a, err := NewVocabulary(w, xrand.NewSource(7), DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewVocabulary(w, xrand.NewSource(7), DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if a.Name(i) != b.Name(i) || a.tags[i].Class != b.tags[i].Class {
			t.Fatalf("vocabulary not deterministic at %d", i)
		}
	}
}

func TestByNameRoundTrip(t *testing.T) {
	v := testVocab(t, 300)
	for i := 0; i < v.N(); i++ {
		j, ok := v.byName[v.Name(i)]
		if !ok || j != i {
			t.Fatalf("ByName(%q) = %d,%v want %d", v.Name(i), j, ok, i)
		}
	}
	if _, ok := v.byName["definitely-not-a-tag-xyz"]; ok {
		t.Fatal("ByName accepted unknown name")
	}
}

func TestCuratedTagsPresent(t *testing.T) {
	v := testVocab(t, 200)
	w := v.world
	i, ok := v.byName["favela"]
	if !ok {
		t.Fatal("curated tag 'favela' missing")
	}
	tg := v.tags[i]
	if tg.Class != ClassLocal {
		t.Fatalf("favela class = %v", tg.Class)
	}
	if w.Country(tg.Anchor).Code != "BR" {
		t.Fatalf("favela anchored at %s, want BR", w.Country(tg.Anchor).Code)
	}
	j, ok := v.byName["pop"]
	if !ok {
		t.Fatal("curated tag 'pop' missing")
	}
	if v.tags[j].Class != ClassGlobal {
		t.Fatalf("pop class = %v", v.tags[j].Class)
	}
	if j > 15 {
		t.Fatalf("'pop' at rank %d; should be near the usage-frequency head", j)
	}
}

func TestClassMixRoughlyRespected(t *testing.T) {
	v := testVocab(t, 5000)
	counts := map[Class]int{}
	for i := 0; i < v.N(); i++ {
		counts[v.tags[i].Class]++
	}
	fracLocal := float64(counts[ClassLocal]) / float64(v.N())
	fracRegional := float64(counts[ClassRegional]) / float64(v.N())
	if math.Abs(fracLocal-0.55) > 0.05 {
		t.Errorf("local fraction = %v, want ~0.55", fracLocal)
	}
	if math.Abs(fracRegional-0.30) > 0.05 {
		t.Errorf("regional fraction = %v, want ~0.30", fracRegional)
	}
}

func TestHeadIsGlobalHeavy(t *testing.T) {
	// The usage-frequency head must skew global relative to the tail
	// (the curated head contributes some famous local tags, so the
	// comparison is head share vs tail share, not an absolute count).
	v := testVocab(t, 5000)
	classFrac := func(lo, hi int) float64 {
		globals := 0
		for i := lo; i < hi; i++ {
			if v.tags[i].Class == ClassGlobal {
				globals++
			}
		}
		return float64(globals) / float64(hi-lo)
	}
	head := classFrac(0, 100)
	tail := classFrac(1000, v.N())
	if head < 0.40 {
		t.Fatalf("only %.0f%% of the top-100 tags are global", 100*head)
	}
	if head <= 2*tail {
		t.Fatalf("head global fraction %.2f not well above tail %.2f", head, tail)
	}
}

func TestAffinityIsDistribution(t *testing.T) {
	v := testVocab(t, 500)
	for _, i := range []int{0, 1, 50, 200, 499} {
		a := affinity(v, i)
		if len(a) != v.world.N() {
			t.Fatalf("affinity length %d", len(a))
		}
		var sum float64
		for _, x := range a {
			if x < 0 {
				t.Fatalf("negative affinity for tag %d", i)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("affinity of tag %d sums to %v", i, sum)
		}
	}
}

func TestAffinityClassShapes(t *testing.T) {
	v := testVocab(t, 500)
	w := v.world

	// favela: local, Brazil-dominated.
	fi := v.byName["favela"]
	fa := affinity(v, fi)
	br := w.MustByCode("BR")
	if dist.ArgMax(fa) != int(br) {
		t.Fatalf("favela affinity peaks at %s", w.Country(geo.CountryID(dist.ArgMax(fa))).Code)
	}
	if fa[br] < 0.8 {
		t.Fatalf("favela BR mass = %v, want >= 0.8", fa[br])
	}

	// pop: global — must match the traffic prior exactly.
	pi := v.byName["pop"]
	pa := affinity(v, pi)
	prior := w.Traffic()
	for c := range prior {
		if math.Abs(pa[c]-prior[c]) > 1e-12 {
			t.Fatalf("pop affinity deviates from prior at country %d", c)
		}
	}

	// kpop: regional — Korean cluster should hold most of the mass.
	ki := v.byName["kpop"]
	ka := affinity(v, ki)
	kr := w.MustByCode("KR")
	if ka[kr] < 0.5 {
		t.Fatalf("kpop KR mass = %v", ka[kr])
	}
}

func TestAffinitySpreadClassesAgree(t *testing.T) {
	v := testVocab(t, 500)
	fi := v.byName["favela"]
	if got := dist.Classify(affinity(v, fi)); got != dist.SpreadLocal {
		t.Fatalf("favela classified %v", got)
	}
	pi := v.byName["pop"]
	if got := dist.Classify(affinity(v, pi)); got != dist.SpreadGlobal {
		t.Fatalf("pop classified %v", got)
	}
}

func TestSampleTagSetProperties(t *testing.T) {
	v := testVocab(t, 2000)
	src := xrand.NewSource(99)
	us := v.world.MustByCode("US")
	cfg := DefaultTagSetConfig()
	sizes := 0
	for trial := 0; trial < 500; trial++ {
		set := v.SampleTagSet(src, us, cfg)
		if len(set) == 0 {
			t.Fatal("empty tag set")
		}
		if len(set) > cfg.MaxTags {
			t.Fatalf("tag set size %d exceeds cap %d", len(set), cfg.MaxTags)
		}
		seen := make(map[int]bool)
		for _, idx := range set {
			if idx < 0 || idx >= v.N() {
				t.Fatalf("tag index %d out of range", idx)
			}
			if seen[idx] {
				t.Fatalf("duplicate tag in set: %d", idx)
			}
			seen[idx] = true
		}
		sizes += len(set)
	}
	mean := float64(sizes) / 500
	if mean < 4 || mean > 15 {
		t.Fatalf("mean tag-set size %v outside plausible band around %d", mean, cfg.MeanTags)
	}
}

func TestSampleTagSetUploadBias(t *testing.T) {
	v := testVocab(t, 5000)
	w := v.world
	br := w.MustByCode("BR")
	jp := w.MustByCode("JP")
	src := xrand.NewSource(7)

	anchoredAt := func(upload geo.CountryID, anchor geo.CountryID) int {
		n := 0
		for trial := 0; trial < 300; trial++ {
			for _, idx := range v.SampleTagSet(src, upload, DefaultTagSetConfig()) {
				tg := v.tags[idx]
				if tg.Class == ClassLocal && tg.Anchor == anchor {
					n++
				}
			}
		}
		return n
	}
	brFromBR := anchoredAt(br, br)
	brFromJP := anchoredAt(jp, br)
	if brFromBR <= 2*brFromJP {
		t.Fatalf("BR uploads picked %d BR-local tags vs %d from JP uploads; expected strong locale bias", brFromBR, brFromJP)
	}
}

func TestVocabularyConfigErrors(t *testing.T) {
	w := geo.DefaultWorld()
	if _, err := NewVocabulary(w, xrand.NewSource(1), DefaultConfig(3)); err == nil {
		t.Fatal("size below curated head accepted")
	}
	bad := DefaultConfig(100)
	bad.LocalFrac = 0.8
	bad.RegionalFrac = 0.5
	if _, err := NewVocabulary(w, xrand.NewSource(1), bad); err == nil {
		t.Fatal("class mix > 1 accepted")
	}
	neg := DefaultConfig(100)
	neg.ZipfExponent = -1
	if _, err := NewVocabulary(w, xrand.NewSource(1), neg); err == nil {
		t.Fatal("negative exponent accepted")
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"  Funny  Cats ": "funny cats",
		"POP":            "pop",
		"a\tb\nc":        "a b c",
		"":               "",
		"   ":            "",
	}
	for in, want := range cases {
		if got := NormalizeName(in); got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplitTagList(t *testing.T) {
	got := SplitTagList("Pop, rock ,POP,, Live  Music ")
	want := []string{"pop", "rock", "live music"}
	if len(got) != len(want) {
		t.Fatalf("SplitTagList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitTagList = %v, want %v", got, want)
		}
	}
}

func TestSplitJoinRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		// Build a list of clean names from bytes.
		names := []string{}
		seen := map[string]bool{}
		for _, b := range raw {
			n := "t" + string(rune('a'+int(b%26)))
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		round := SplitTagList(JoinTagList(names))
		if len(round) != len(names) {
			return false
		}
		for i := range names {
			if round[i] != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUsageProbSumsToOne(t *testing.T) {
	v := testVocab(t, 400)
	var sum float64
	for i := 0; i < v.N(); i++ {
		sum += v.freq.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("usage probs sum to %v", sum)
	}
}

// sampleTagSetParent is SampleTagSet as it was before it wrote into lent
// storage — a map and a fresh slice per set, sort.SliceStable — kept as the
// reference the lending form is held to, id for id and draw for draw.
func sampleTagSetParent(v *Vocabulary, src *xrand.Source, upload geo.CountryID, cfg TagSetConfig) []int {
	size := 1
	p := 1 / float64(cfg.MeanTags)
	for size < cfg.MaxTags && !src.Bernoulli(p) {
		size++
	}
	lang := v.world.Country(upload).Language
	seen := make(map[int]bool, size)
	out := make([]int, 0, size)
	for attempts := 0; len(out) < size && attempts < 20*size; attempts++ {
		var idx int
		u := src.Float64()
		switch {
		case u < cfg.LocalBias && v.anchorCat[upload] != nil:
			idx = v.byAnchor[upload][v.anchorCat[upload].Draw()]
		case u < cfg.LocalBias+cfg.RegionalBias && v.languageCat[lang] != nil:
			idx = v.byLanguage[lang][v.languageCat[lang].Draw()]
		case v.globalCat != nil:
			idx = v.globalIdx[v.globalCat.Draw()]
		default:
			idx = v.freqSample(src)
		}
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	if len(out) == 0 {
		out = append(out, v.freqSample(src))
	}
	rank := func(idx int) int {
		t := v.tags[idx]
		switch t.Class {
		case ClassLocal:
			if t.Anchor == upload {
				return 0
			}
			return 1
		case ClassRegional:
			return 2
		default:
			return 3
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return rank(out[a]) < rank(out[b]) })
	return out
}

// TestSampleTagSetIntoMatchesParent: the lending sampler draws the sets
// the allocating one did, from the same streams, and allocates nothing
// once its destination has grown to a set's size.
func TestSampleTagSetIntoMatchesParent(t *testing.T) {
	got, want := testVocab(t, 3000), testVocab(t, 3000) // same seed: the samplers' own streams match too
	gotSrc, wantSrc := xrand.NewSource(41), xrand.NewSource(41)
	cfg := DefaultTagSetConfig()
	var set []int
	for trial := 0; trial < 4000; trial++ {
		upload := geo.CountryID(trial % got.world.N())
		set = got.SampleTagSetInto(set, gotSrc, upload, cfg)
		if ref := sampleTagSetParent(want, wantSrc, upload, cfg); !slices.Equal(set, ref) {
			t.Fatalf("trial %d (upload %d): set %v, the parent's sampler drew %v", trial, upload, set, ref)
		}
	}
	if gotSrc.Float64() != wantSrc.Float64() {
		t.Fatal("the two samplers consumed different numbers of draws")
	}

	set = make([]int, 0, cfg.MaxTags)
	br := got.world.MustByCode("BR")
	if n := testing.AllocsPerRun(500, func() { set = got.SampleTagSetInto(set, gotSrc, br, cfg) }); n != 0 {
		t.Errorf("SampleTagSetInto with room lent: %v allocs per set, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() { sampleTagSetParent(want, wantSrc, br, cfg) }); n < 2 {
		t.Errorf("the reference sampler allocates %v per set: it no longer shows what lending saves", n)
	}
}

// TestAffinityIntoRegional: a regional tag's affinity is, bit for bit,
// what summing its language cluster from the world on every call gave,
// and reading it allocates nothing.
func TestAffinityIntoRegional(t *testing.T) {
	v := testVocab(t, 2000)
	w := v.world
	prior := w.Traffic()
	out := make([]float64, w.N())
	regional := -1
	for i := 0; i < v.N(); i++ {
		tg := v.tags[i]
		if tg.Class != ClassRegional {
			continue
		}
		regional = i
		peers := w.LanguagePeers(tg.Language)
		var clusterTraffic float64
		for _, p := range peers {
			clusterTraffic += prior[p]
		}
		want := make([]float64, w.N())
		for c := range want {
			want[c] = (1 - tg.AnchorMass) * prior[c]
		}
		for _, p := range peers {
			want[p] += tg.AnchorMass * prior[p] / clusterTraffic
		}
		v.AffinityInto(out, i)
		for c := range want {
			if math.Float64bits(out[c]) != math.Float64bits(want[c]) {
				t.Fatalf("tag %d (%s) country %d: affinity %v, want %v", i, tg.Language, c, out[c], want[c])
			}
		}
	}
	if regional < 0 {
		t.Fatal("no regional tag in the vocabulary")
	}
	if n := testing.AllocsPerRun(1000, func() { v.AffinityInto(out, regional) }); n != 0 {
		t.Errorf("AffinityInto on a regional tag: %v allocs, want 0", n)
	}
}

// TestSortTopicalFirstMatchesStableSort: the four-bucket partition orders
// every set as the stable sort on rank it replaced — sets up to MaxTags,
// and every tenth one longer than any default-config set.
func TestSortTopicalFirstMatchesStableSort(t *testing.T) {
	v := testVocab(t, 3000)
	src := xrand.NewSource(59)
	for trial := 0; trial < 5000; trial++ {
		n := src.Intn(DefaultTagSetConfig().MaxTags + 1)
		if trial%10 == 0 {
			n = src.Intn(200)
		}
		set := make([]int, n)
		for i := range set {
			set[i] = src.Intn(v.N())
		}
		upload := geo.CountryID(src.Intn(v.world.N()))
		if n > 0 && trial%2 == 0 {
			upload = v.tags[set[0]].Anchor // so rank 0 is not rare
		}
		want := slices.Clone(set)
		slices.SortStableFunc(want, func(a, b int) int { return v.topicalRank(a, upload) - v.topicalRank(b, upload) })
		v.sortTopicalFirst(set, upload)
		if !slices.Equal(set, want) {
			t.Fatalf("trial %d: %d tags from %d: got %v, want %v", trial, n, upload, set, want)
		}
	}
}
