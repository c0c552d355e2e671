package placement

import (
	"testing"

	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/synth"
)

var cachedCat *synth.Catalog

func testEvaluator(t *testing.T, cfg Config) (*synth.Catalog, *Evaluator) {
	t.Helper()
	if cachedCat == nil {
		cat, err := synth.Generate(synth.DefaultConfig(2500))
		if err != nil {
			t.Fatal(err)
		}
		cachedCat = cat
	}
	e, err := NewEvaluator(cachedCat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions from ground-truth tag affinities (rank-weighted), the
	// same stand-in the geocache tests use.
	pred := make([][]float64, len(cachedCat.Videos))
	for i := range cachedCat.Videos {
		v := &cachedCat.Videos[i]
		if len(v.TagIDs) == 0 {
			continue
		}
		comps := make([][]float64, 0, len(v.TagIDs))
		ws := make([]float64, 0, len(v.TagIDs))
		for k, tid := range v.TagIDs {
			comps = append(comps, cachedCat.Vocab.AffinityInto(make([]float64, cachedCat.World.N()), tid))
			ws = append(ws, 1/float64(k+1))
		}
		m, err := dist.Mix(comps, ws)
		if err != nil {
			t.Fatal(err)
		}
		pred[i] = m
	}
	if err := e.SetPredictions(pred); err != nil {
		t.Fatal(err)
	}
	return cachedCat, e
}

func TestDistanceMatrixSane(t *testing.T) {
	w := geo.DefaultWorld()
	dm := w.DistanceMatrix()
	us := w.MustByCode("US")
	ca := w.MustByCode("CA")
	au := w.MustByCode("AU")
	if dm[us][us] != 0 {
		t.Fatal("self distance non-zero")
	}
	if dm[us][ca] >= dm[us][au] {
		t.Fatalf("US-CA (%.0f) should be nearer than US-AU (%.0f)", dm[us][ca], dm[us][au])
	}
	if dm[us][au] != dm[au][us] {
		t.Fatal("distance matrix not symmetric")
	}
	// Antipodal bound: nothing exceeds half the circumference.
	for i := range dm {
		for j := range dm[i] {
			if dm[i][j] < 0 || dm[i][j] > 20100 {
				t.Fatalf("distance [%d][%d] = %.0f km out of range", i, j, dm[i][j])
			}
		}
	}
}

func TestStrategyOrdering(t *testing.T) {
	// The E7 headline: oracle <= predicted < home and popular (mean km),
	// i.e. tag-predicted placement brings content closer to viewers.
	_, e := testEvaluator(t, DefaultConfig())
	get := func(s Strategy) Result {
		t.Helper()
		r, err := e.Evaluate(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		return r
	}
	home := get(StrategyHome)
	popular := get(StrategyPopular)
	predicted := get(StrategyPredicted)
	oracle := get(StrategyOracle)

	if oracle.MeanKm > predicted.MeanKm {
		t.Fatalf("oracle %.0f km worse than predicted %.0f km", oracle.MeanKm, predicted.MeanKm)
	}
	if predicted.MeanKm >= home.MeanKm {
		t.Fatalf("predicted %.0f km not below home %.0f km", predicted.MeanKm, home.MeanKm)
	}
	if predicted.MeanKm >= popular.MeanKm {
		t.Fatalf("predicted %.0f km not below popular %.0f km", predicted.MeanKm, popular.MeanKm)
	}
	if predicted.LocalFraction <= popular.LocalFraction {
		t.Fatalf("predicted local fraction %.3f not above popular %.3f", predicted.LocalFraction, popular.LocalFraction)
	}
}

func TestMoreReplicasNeverHurt(t *testing.T) {
	var prev float64 = -1
	for _, r := range []int{1, 3, 6} {
		_, e := testEvaluator(t, Config{Replicas: r})
		res, err := e.Evaluate(StrategyOracle)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.MeanKm > prev+1e-9 {
			t.Fatalf("mean km rose from %.1f to %.1f with more replicas", prev, res.MeanKm)
		}
		prev = res.MeanKm
	}
}

func TestPlacementsShape(t *testing.T) {
	cat, e := testEvaluator(t, DefaultConfig())
	for _, s := range []Strategy{StrategyHome, StrategyPopular, StrategyPredicted, StrategyOracle} {
		sites, err := e.Placements(s, 0)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(sites) != 3 {
			t.Fatalf("%v returned %d sites", s, len(sites))
		}
		seen := map[geo.CountryID]bool{}
		for _, c := range sites {
			if int(c) < 0 || int(c) >= cat.World.N() {
				t.Fatalf("%v placed at invalid country %d", s, c)
			}
			if seen[c] {
				t.Fatalf("%v placed two replicas in %v", s, c)
			}
			seen[c] = true
		}
	}
}

func TestHomeIncludesUploadCountry(t *testing.T) {
	cat, e := testEvaluator(t, DefaultConfig())
	sites, err := e.Placements(StrategyHome, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sites[0] != cat.Videos[7].Upload {
		t.Fatalf("home strategy's first site %v is not the upload country %v", sites[0], cat.Videos[7].Upload)
	}
}

func TestValidation(t *testing.T) {
	cat, _ := testEvaluator(t, DefaultConfig())
	if _, err := NewEvaluator(cat, Config{Replicas: 0}); err == nil {
		t.Fatal("zero replicas accepted")
	}
	if _, err := NewEvaluator(cat, Config{Replicas: cat.World.N() + 1}); err == nil {
		t.Fatal("too many replicas accepted")
	}
	e, err := NewEvaluator(cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate(StrategyPredicted); err == nil {
		t.Fatal("predicted without predictions accepted")
	}
	if _, err := e.Evaluate(Strategy(0)); err == nil {
		t.Fatal("invalid strategy accepted")
	}
	if err := e.SetPredictions(make([][]float64, 1)); err == nil {
		t.Fatal("mis-sized predictions accepted")
	}
}

func TestStrategyNames(t *testing.T) {
	if StrategyHome.String() != "home" || StrategyOracle.String() != "oracle" {
		t.Fatal("strategy names broken")
	}
}
