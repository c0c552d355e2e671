package profilestore

import (
	"math"
	"sync"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/pipeline"
	"viewstags/internal/tagviews"
)

var (
	fixOnce sync.Once
	fixRes  *pipeline.Result
	fixErr  error
)

func fixture(t *testing.T) *pipeline.Result {
	t.Helper()
	fixOnce.Do(func() {
		fixRes, fixErr = pipeline.FromSynthetic(3000, 20110301, alexa.DefaultConfig())
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixRes
}

func buildSnap(t *testing.T) *Snapshot {
	t.Helper()
	s, err := Build(fixture(t).Analysis)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildInternsEveryTag(t *testing.T) {
	res := fixture(t)
	s := buildSnap(t)
	if s.NumTags() != res.Analysis.NumTags() {
		t.Fatalf("snapshot has %d tags, analysis %d", s.NumTags(), res.Analysis.NumTags())
	}
	for _, name := range res.Analysis.TagNames() {
		id, ok := s.Lookup(name)
		if !ok {
			t.Fatalf("tag %q not interned", name)
		}
		p := &s.profiles[id]
		if p.Name != name {
			t.Fatalf("id %d resolves to %q, want %q", id, p.Name, name)
		}
		ref, _ := res.Analysis.TagProfile(name)
		if p.Videos != ref.Videos || p.TotalViews != ref.TotalViews {
			t.Fatalf("%q: profile (videos=%d views=%v) != analysis (videos=%d views=%v)",
				name, p.Videos, p.TotalViews, ref.Videos, ref.TotalViews)
		}
	}
	if _, ok := s.Lookup("no-such-tag-xyzzy"); ok {
		t.Fatal("unknown tag resolved")
	}
}

// TestPredictMatchesTagviews pins the serving predictor to the offline
// one: same tags, same weighting → same distribution.
func TestPredictMatchesTagviews(t *testing.T) {
	res := fixture(t)
	s := buildSnap(t)
	cat := res.Catalog
	for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
		ref, err := tagviews.NewPredictor(res.Analysis, w)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, res.World.N())
		checked := 0
		for i := range cat.Videos {
			names := cat.Videos[i].TagNames(cat.Vocab)
			if len(names) == 0 {
				continue
			}
			want, wantOK := ref.Predict(names)
			gotOK := s.PredictInto(dst, names, w)
			if gotOK != wantOK {
				t.Fatalf("%v video %d: known=%v, tagviews says %v", w, i, gotOK, wantOK)
			}
			for c := range want {
				if math.Abs(dst[c]-want[c]) > 1e-9 {
					t.Fatalf("%v video %d country %d: %v != %v", w, i, c, dst[c], want[c])
				}
			}
			checked++
			if checked >= 200 {
				break
			}
		}
		if checked == 0 {
			t.Fatal("no tagged videos checked")
		}
	}
}

func TestPredictFallback(t *testing.T) {
	s := buildSnap(t)
	dst := make([]float64, s.World().N())
	if s.PredictInto(dst, []string{"definitely-unknown-tag"}, tagviews.WeightIDF) {
		t.Fatal("unknown tag reported known")
	}
	prior := s.Prior()
	for c := range prior {
		if dst[c] != prior[c] {
			t.Fatalf("fallback[%d] = %v, want prior %v", c, dst[c], prior[c])
		}
	}
}

func TestTopProfilesOrdered(t *testing.T) {
	s := buildSnap(t)
	top := s.TopProfiles(25)
	if len(top) != 25 {
		t.Fatalf("got %d profiles, want 25", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].TotalViews > top[i-1].TotalViews {
			t.Fatalf("TopProfiles not descending at %d", i)
		}
	}
}

// TestConcurrentReadReload hammers Lookup/PredictInto from many readers
// while another goroutine keeps swapping snapshots — the hot-reload
// contract, meaningful under -race.
func TestConcurrentReadReload(t *testing.T) {
	res := fixture(t)
	s1 := buildSnap(t)
	s2, err := Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(s1)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Analysis.TagNames()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dst := make([]float64, res.World.N())
			tags := []string{"pop", "favela", names[r%len(names)]}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := st.Load()
				if _, ok := snap.Lookup(names[(r*31+i)%len(names)]); !ok {
					t.Error("interned tag vanished")
					return
				}
				snap.PredictInto(dst, tags, tagviews.WeightIDF)
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		next := s2
		if i%2 == 1 {
			next = s1
		}
		if _, err := st.Swap(next); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestZeroMassTagDoesNotPanic covers the crawled-dataset edge case: a
// record with zero total views passes the §2 filter, reconstructs to an
// all-zero field, and leaves its tags with zero-mass aggregates. Build
// must produce a degraded profile (not panic in a worker goroutine),
// and both predictors must treat the tag as signal-free.
func TestZeroMassTagDoesNotPanic(t *testing.T) {
	world := geo.DefaultWorld()
	pyt := world.Traffic()
	popOK := make([]int, world.N())
	popOK[0], popOK[1] = 30, 10
	records := []dataset.Record{
		{VideoID: "ghost-vid", TotalViews: 0, Tags: []string{"ghost"}},
		{VideoID: "real-vid", TotalViews: 1000, Tags: []string{"real"}},
	}
	pop := [][]int{popOK, popOK}
	an, err := tagviews.Build(world, records, pop, pyt)
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := an.TagProfile("ghost")
	if !ok {
		t.Fatal("zero-mass tag not aggregated")
	}
	if prof.TotalViews != 0 || prof.JSToTraffic != 0 || prof.Entropy != 0 {
		t.Fatalf("zero-mass profile not degraded: %+v", prof)
	}

	s, err := Build(an)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup("ghost"); !ok {
		t.Fatal("zero-mass tag not interned")
	}
	dst := make([]float64, world.N())
	for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
		if s.PredictInto(dst, []string{"ghost"}, w) {
			t.Fatalf("%v: zero-mass tag reported as signal", w)
		}
		ref, err := tagviews.NewPredictor(an, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, known := ref.Predict([]string{"ghost"}); known {
			t.Fatalf("%v: offline predictor treats zero-mass tag as signal", w)
		}
	}
}

func TestSwapRejectsShapeChange(t *testing.T) {
	s := buildSnap(t)
	st, err := NewStore(s)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Snapshot{nC: s.nC + 1}
	if _, err := st.Swap(bad); err == nil {
		t.Fatal("shape-changing swap accepted")
	}
	if _, err := st.Swap(nil); err == nil {
		t.Fatal("nil swap accepted")
	}
}
