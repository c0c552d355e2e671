package tagviews

import (
	"context"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/crawler"
	"viewstags/internal/dataset"
	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/reconstruct"
	"viewstags/internal/relgraph"
	"viewstags/internal/synth"
	"viewstags/internal/xrand"
	"viewstags/internal/ytapi"
)

// pipelineFixture is the full crawl→filter→reconstruct pipeline output,
// built once (it is the integration substrate for this package's tests).
type pipelineFixture struct {
	cat   *synth.Catalog
	clean *dataset.Clean
	pyt   []float64
	an    *Analysis
}

var (
	fixtureOnce sync.Once
	fixture     *pipelineFixture
	fixtureErr  error
)

func testFixture(t *testing.T) *pipelineFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureErr = buildFixture()
	})
	if fixtureErr != nil {
		t.Fatalf("fixture: %v", fixtureErr)
	}
	return fixture
}

func buildFixture() error {
	cat, err := synth.Generate(synth.DefaultConfig(4000))
	if err != nil {
		return err
	}
	g, err := relgraph.Build(cat, xrand.NewSource(2), relgraph.DefaultConfig())
	if err != nil {
		return err
	}
	srv, err := ytapi.NewServer(cat, g, ytapi.DefaultServerConfig())
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ccfg := crawler.DefaultConfig()
	ccfg.SeedRegions = geo.YouTube2011Locales
	cr, err := crawler.New(ytapi.NewClient(ts.URL, "", ts.Client()), ccfg)
	if err != nil {
		return err
	}
	res, err := cr.Run(context.Background())
	if err != nil {
		return err
	}
	clean := dataset.Filter(cat.World, res.Records)
	pyt, err := alexa.Estimate(cat.World, alexa.DefaultConfig())
	if err != nil {
		return err
	}
	an, err := Build(cat.World, clean.Records, clean.Pop, pyt)
	if err != nil {
		return err
	}
	fixture = &pipelineFixture{cat: cat, clean: clean, pyt: pyt, an: an}
	return nil
}

// videoField reconstructs record i's view field as Build does (nil when
// reconstruction fails), outside Build's loop.
func videoField(f *pipelineFixture, i int) []float64 {
	field, err := reconstruct.ViewsFloat(f.clean.Pop[i], f.pyt, float64(f.clean.Records[i].TotalViews))
	if err != nil {
		return nil
	}
	return field
}

func TestBuildBasics(t *testing.T) {
	f := testFixture(t)
	if f.an.N() != len(f.clean.Records) {
		t.Fatalf("analysis over %d records, want %d", f.an.N(), len(f.clean.Records))
	}
	for i := range f.clean.Records {
		if videoField(f, i) == nil {
			t.Fatalf("record %d does not reconstruct post-filter", i)
		}
	}
	if f.an.NumTags() == 0 {
		t.Fatal("no tags aggregated")
	}
}

func TestEquation3Additivity(t *testing.T) {
	// views(t)[c] must equal the sum of the member videos' fields, each
	// rounded to the view unit — the definition of Eq. 3, verified
	// independently of Build's loop — bit for bit: the sums are exact.
	f := testFixture(t)
	name := f.an.TopTags(1)[0].Name
	want := make([]float64, f.an.World.N())
	for i := 0; i < f.an.N(); i++ {
		r := f.an.Record(i)
		has := false
		for _, tg := range r.Tags {
			if tg == name {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		for c, x := range videoField(f, i) {
			want[c] += RoundViews(x)
		}
	}
	prof, ok := f.an.TagProfile(name)
	if !ok {
		t.Fatal("top tag vanished")
	}
	for c := range want {
		if prof.Views[c] != want[c] {
			t.Fatalf("country %d: aggregate %v, independent sum %v", c, prof.Views[c], want[c])
		}
	}
}

func TestVideoFieldsSumToTotals(t *testing.T) {
	f := testFixture(t)
	for i := 0; i < f.an.N(); i++ {
		field := videoField(f, i)
		var sum float64
		for _, x := range field {
			sum += x
		}
		want := float64(f.an.Record(i).TotalViews)
		if math.Abs(sum-want) > 1e-6*(1+want) {
			t.Fatalf("record %d: field sums to %v, want %v", i, sum, want)
		}
	}
}

func TestFig3FavelaConcentratedInBrazil(t *testing.T) {
	f := testFixture(t)
	prof, ok := f.an.TagProfile("favela")
	if !ok {
		t.Skip("favela not sampled at this scale")
	}
	br := f.cat.World.MustByCode("BR")
	if prof.TopCountry != br {
		t.Fatalf("favela top country = %s", f.cat.World.Country(prof.TopCountry).Code)
	}
	if prof.TopShare < 0.5 {
		t.Fatalf("favela BR share = %v, want > 0.5 (Fig. 3 shape)", prof.TopShare)
	}
	if prof.Spread == dist.SpreadGlobal {
		t.Fatal("favela classified global")
	}
}

func TestFig2PopFollowsTraffic(t *testing.T) {
	f := testFixture(t)
	popProf, ok := f.an.TagProfile("pop")
	if !ok {
		t.Fatal("'pop' missing — it is a curated head tag")
	}
	favProf, ok := f.an.TagProfile("favela")
	if !ok {
		t.Skip("favela not sampled at this scale")
	}
	// Fig. 2 vs Fig. 3: the global tag must sit far closer to the
	// traffic distribution than the local tag. (At paper scale the gap
	// is wider; 2.5× is the calibrated bound for this fixture size.)
	if popProf.JSToTraffic >= favProf.JSToTraffic/2.5 {
		t.Fatalf("JS(pop)=%v not ≪ JS(favela)=%v", popProf.JSToTraffic, favProf.JSToTraffic)
	}
	if popProf.Spread != dist.SpreadGlobal {
		t.Fatalf("'pop' classified %v", popProf.Spread)
	}
}

func TestPopAmongTopTags(t *testing.T) {
	// The paper reports 'pop' as the second most viewed tag; at our
	// scale it must at least sit in the top tags by views.
	f := testFixture(t)
	top := f.an.TopTags(20)
	for _, p := range top {
		if p.Name == "pop" {
			return
		}
	}
	t.Fatalf("'pop' not in top-20 tags: %v", tagNames(top))
}

func tagNames(ps []*TagProfile) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

func TestTopTagsSortedAndBounded(t *testing.T) {
	f := testFixture(t)
	top := f.an.TopTags(50)
	if len(top) != 50 {
		t.Fatalf("TopTags(50) returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].TotalViews < top[i].TotalViews {
			t.Fatal("TopTags not descending")
		}
	}
	huge := f.an.TopTags(1 << 30)
	if len(huge) != f.an.NumTags() {
		t.Fatalf("TopTags(huge) returned %d, want %d", len(huge), f.an.NumTags())
	}
}

func TestSpreadCensusCoversAllTags(t *testing.T) {
	f := testFixture(t)
	census := f.an.SpreadCensus()
	total := 0
	for _, n := range census {
		total += n
	}
	if total != f.an.NumTags() {
		t.Fatalf("census covers %d of %d tags", total, f.an.NumTags())
	}
	if census[dist.SpreadLocal] == 0 || census[dist.SpreadGlobal] == 0 {
		t.Fatalf("census missing classes: %v", census)
	}
}

func TestProfileInternalConsistency(t *testing.T) {
	f := testFixture(t)
	for _, p := range f.an.TopTags(30) {
		if p.Videos <= 0 {
			t.Fatalf("tag %q has %d videos", p.Name, p.Videos)
		}
		if p.TopShare < 0 || p.TopShare > 1 {
			t.Fatalf("tag %q top share %v", p.Name, p.TopShare)
		}
		if math.Abs(math.Pow(2, p.Entropy)-p.EffectiveCountries) > 1e-6*p.EffectiveCountries {
			t.Fatalf("tag %q entropy/effective mismatch", p.Name)
		}
		if p.JSToTraffic < 0 || p.JSToTraffic > 1 {
			t.Fatalf("tag %q JS %v", p.Name, p.JSToTraffic)
		}
	}
}

func TestUnknownTagProfile(t *testing.T) {
	f := testFixture(t)
	if _, ok := f.an.TagProfile("no-such-tag-at-all"); ok {
		t.Fatal("profile for unknown tag")
	}
}

func TestBuildValidation(t *testing.T) {
	w := geo.DefaultWorld()
	if _, err := Build(w, make([]dataset.Record, 2), make([][]int, 1), w.Traffic()); err == nil {
		t.Fatal("record/pop mismatch accepted")
	}
	if _, err := Build(w, nil, nil, []float64{1}); err == nil {
		t.Fatal("short traffic vector accepted")
	}
}

func TestPredictorKnownTag(t *testing.T) {
	f := testFixture(t)
	pred, err := NewPredictor(f.an, WeightIDF)
	if err != nil {
		t.Fatal(err)
	}
	guess, covered := pred.Predict([]string{"favela"})
	if !covered {
		t.Skip("favela not in training tags")
	}
	br := int(f.cat.World.MustByCode("BR"))
	if dist.ArgMax(guess) != br {
		t.Fatalf("favela prediction peaks at %d, want BR", dist.ArgMax(guess))
	}
	var sum float64
	for _, x := range guess {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("prediction sums to %v", sum)
	}
}

func TestPredictorFallsBackToPrior(t *testing.T) {
	f := testFixture(t)
	pred, err := NewPredictor(f.an, WeightUniform)
	if err != nil {
		t.Fatal(err)
	}
	guess, covered := pred.Predict([]string{"zzz-unknown"})
	if covered {
		t.Fatal("unknown tag reported covered")
	}
	prior := dist.Normalize(f.pyt)
	for c := range prior {
		if math.Abs(guess[c]-prior[c]) > 1e-12 {
			t.Fatal("fallback is not the prior")
		}
	}
}

func TestPredictorRejectsBadWeighting(t *testing.T) {
	f := testFixture(t)
	if _, err := NewPredictor(f.an, Weighting(0)); err == nil {
		t.Fatal("zero weighting accepted")
	}
}

// TestWeightRule pins the one weight rule every predictor calls: the
// three schemes' weights, and no weight for a tag with no view mass (a
// NaN mass included), for an IDF tag no video carries, or under an
// invalid scheme.
func TestWeightRule(t *testing.T) {
	type weightCase struct {
		w               Weighting
		views           float64
		videos, records int
		want            float64
	}
	cases := []weightCase{
		{WeightUniform, 5, 2, 10, 1},
		{WeightByViews, 5, 2, 10, 5},
		{WeightIDF, 5, 2, 10, math.Log(1 + 10.0/2)},
		{WeightIDF, 5, 0, 10, 0},
		{WeightingInvalid, 5, 2, 10, 0},
	}
	for _, w := range []Weighting{WeightUniform, WeightByViews, WeightIDF} {
		for _, views := range []float64{0, -1, math.NaN()} {
			cases = append(cases, weightCase{w, views, 2, 10, 0})
		}
	}
	for _, c := range cases {
		if got := c.w.Weight(c.views, c.videos, c.records); got != c.want {
			t.Errorf("%v.Weight(%v, %d, %d) = %v, want %v", c.w, c.views, c.videos, c.records, got, c.want)
		}
	}
}

func TestE5TagPredictorBeatsBaselines(t *testing.T) {
	// The paper's conjecture, quantified: predicting a held-out video's
	// view field from its tags must beat both the geography-blind prior
	// and the tag-blind upload-country baseline.
	f := testFixture(t)
	res, err := Evaluate(f.cat.World, f.clean.Records, f.clean.Pop, f.pyt, DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.N < 100 {
		t.Fatalf("only %d test videos", res.N)
	}
	if res.TagJS >= res.PriorJS {
		t.Fatalf("tag predictor JS %v not below prior %v", res.TagJS, res.PriorJS)
	}
	if res.TagJS >= res.UploadJS {
		t.Fatalf("tag predictor JS %v not below upload baseline %v", res.TagJS, res.UploadJS)
	}
	if res.TagTop1 <= res.PriorTop1 {
		t.Fatalf("tag top-1 %v not above prior %v", res.TagTop1, res.PriorTop1)
	}
}

func TestEvaluateWeightingVariantsAllWork(t *testing.T) {
	f := testFixture(t)
	for _, w := range []Weighting{WeightUniform, WeightByViews, WeightIDF} {
		cfg := DefaultEvalConfig()
		cfg.Weighting = w
		res, err := Evaluate(f.cat.World, f.clean.Records, f.clean.Pop, f.pyt, cfg)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		if res.N == 0 || res.TagJS <= 0 {
			t.Fatalf("%v: degenerate result %+v", w, res)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	f := testFixture(t)
	a, err := Evaluate(f.cat.World, f.clean.Records, f.clean.Pop, f.pyt, DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(f.cat.World, f.clean.Records, f.clean.Pop, f.pyt, DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("evaluation not deterministic:\n%v\n%v", a, b)
	}
}

func TestEvaluateValidation(t *testing.T) {
	f := testFixture(t)
	cfg := DefaultEvalConfig()
	cfg.TestFrac = 0
	if _, err := Evaluate(f.cat.World, f.clean.Records, f.clean.Pop, f.pyt, cfg); err == nil {
		t.Fatal("TestFrac 0 accepted")
	}
	cfg = DefaultEvalConfig()
	if _, err := Evaluate(f.cat.World, f.clean.Records[:3], f.clean.Pop[:3], f.pyt, cfg); err == nil {
		t.Fatal("tiny dataset accepted")
	}
}
