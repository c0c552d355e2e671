package reconstruct

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"viewstags/internal/alexa"
	"viewstags/internal/geo"
	"viewstags/internal/mapchart"
	"viewstags/internal/synth"
)

func TestViewsInvertsKnownField(t *testing.T) {
	// Hand-built example: 3 countries with traffic shares (.5,.3,.2) and
	// true views (500, 300, 200) — uniform intensity, so pop = (61,61,61)
	// and reconstruction must return views proportional to traffic.
	pyt := []float64{0.5, 0.3, 0.2}
	pop := []int{61, 61, 61}
	got, err := Views(pop, pyt, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{500, 300, 200}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("views = %v, want %v", got, want)
		}
	}
}

func TestViewsEliminatesK(t *testing.T) {
	// Scaling the popularity vector must not change the reconstruction —
	// that's what "eliminating K(v)" means. (Integer vectors only scale
	// cleanly by integer factors; use 20 and 40.)
	pyt := []float64{0.6, 0.4}
	a, err := Views([]int{20, 10}, pyt, 900)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Views([]int{40, 20}, pyt, 900)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a {
		if a[c] != b[c] {
			t.Fatalf("reconstruction depends on K: %v vs %v", a, b)
		}
	}
}

func TestViewsSumPreserved(t *testing.T) {
	f := func(rawPop [8]uint8, rawTotal uint32) bool {
		pop := make([]int, 8)
		anyPos := false
		for i, v := range rawPop {
			pop[i] = int(v % 62)
			if pop[i] > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			return true // no-signal case tested separately
		}
		pyt := []float64{0.3, 0.2, 0.15, 0.1, 0.1, 0.07, 0.05, 0.03}
		total := int64(rawTotal % 10_000_000)
		out, err := Views(pop, pyt, total)
		if err != nil {
			return false
		}
		var sum int64
		for _, n := range out {
			if n < 0 {
				return false
			}
			sum += n
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestViewsErrors(t *testing.T) {
	if _, err := Views([]int{1}, []float64{0.5, 0.5}, 10); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Views([]int{0, 0}, []float64{0.5, 0.5}, 10); !errors.Is(err, ErrNoSignal) {
		t.Fatalf("all-zero pop err = %v", err)
	}
	if _, err := Views([]int{1, 1}, []float64{0, 0}, 10); !errors.Is(err, ErrNoSignal) {
		t.Fatalf("zero-traffic err = %v", err)
	}
	if _, err := ViewsFloat([]int{1, 1}, []float64{0.5, 0.5}, -1); err == nil {
		t.Fatal("negative total accepted")
	}
}

func TestMissingDataTreatedAsZero(t *testing.T) {
	out, err := Views([]int{-1, 61}, []float64{0.5, 0.5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 100 {
		t.Fatalf("views = %v", out)
	}
}

func TestEndToEndAgainstSyntheticTruth(t *testing.T) {
	// The pipeline's integration invariant: generate → quantize →
	// reconstruct with a noiseless traffic estimate, and the recovered
	// field must sit close to ground truth (only quantization loss).
	cat, err := synth.Generate(synth.DefaultConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	pyt, err := alexa.Estimate(cat.World, alexa.Config{NoiseSigma: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var jsSum float64
	var topMatches, n int
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if v.PopState != synth.PopStateOK || v.TotalViews < 1000 {
			continue
		}
		rec, err := Views(v.PopVector, pyt, v.TotalViews)
		if err != nil {
			continue
		}
		q, err := Score(rec, v.TrueViews)
		if err != nil {
			t.Fatal(err)
		}
		jsSum += q.JS
		if q.TopMatch {
			topMatches++
		}
		n++
	}
	if n < 80 {
		t.Fatalf("only %d videos scored", n)
	}
	meanJS := jsSum / float64(n)
	// Quantization rounds low-intensity countries to zero, so some loss
	// is inherent; 0.15 bits is the calibrated budget for this scale.
	if meanJS > 0.15 {
		t.Fatalf("mean JS divergence %v; quantization-only loss should be small", meanJS)
	}
	if frac := float64(topMatches) / float64(n); frac < 0.85 {
		t.Fatalf("top-country recovered for only %.1f%% of videos", 100*frac)
	}
}

func TestNoiseDegradesReconstruction(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	meanJS := func(sigma float64) float64 {
		t.Helper()
		pyt, err := alexa.Estimate(cat.World, alexa.Config{NoiseSigma: sigma, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for i := range cat.Videos {
			v := &cat.Videos[i]
			if v.PopState != synth.PopStateOK || v.TotalViews < 1000 {
				continue
			}
			rec, err := Views(v.PopVector, pyt, v.TotalViews)
			if err != nil {
				continue
			}
			q, err := Score(rec, v.TrueViews)
			if err != nil {
				t.Fatal(err)
			}
			sum += q.JS
			n++
		}
		return sum / float64(n)
	}
	clean := meanJS(0)
	noisy := meanJS(0.8)
	if noisy <= clean {
		t.Fatalf("JS at sigma 0.8 (%v) not above sigma 0 (%v)", noisy, clean)
	}
}

func TestScoreErrorsOnMismatch(t *testing.T) {
	if _, err := Score([]int64{1}, []int64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestScorePerfect(t *testing.T) {
	q, err := Score([]int64{10, 20, 30}, []int64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if q.JS > 1e-12 || q.TV > 1e-12 || !q.TopMatch {
		t.Fatalf("self score = %+v", q)
	}
}

func TestQuantizationLossBounded(t *testing.T) {
	// Quantizing then reconstructing a random field with the true prior
	// must stay within a small JS budget — the deterministic core of the
	// paper's method, without any sampling noise.
	w := geo.DefaultWorld()
	pyt := w.Traffic()
	field := make([]float64, w.N())
	// A regional-ish field: mass on a few countries plus background.
	for c := range field {
		field[c] = pyt[c] * 0.2
	}
	field[w.MustByCode("BR")] = 0.5
	field[w.MustByCode("PT")] = 0.15

	views := make([]int64, len(field))
	var total int64
	for c, p := range field {
		views[c] = int64(p * 1e7)
		total += views[c]
	}
	fviews := make([]float64, len(views))
	for c, n := range views {
		fviews[c] = float64(n)
	}
	intensity, err := mapchart.IntensityInto(make([]float64, len(fviews)), fviews, pyt)
	if err != nil {
		t.Fatal(err)
	}
	pop := mapchart.QuantizeInto(make([]int, len(intensity)), intensity, mapchart.MaxIntensity)
	rec, err := Views(pop, pyt, total)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Score(rec, views)
	if err != nil {
		t.Fatal(err)
	}
	// The uniform background (20% of mass spread at ~0.5% of peak
	// intensity) rounds to zero in 62-level quantization — the same loss
	// the paper's reconstruction inherits. The anchored mass dominates,
	// so the divergence stays bounded but not tiny.
	if q.JS > 0.15 {
		t.Fatalf("quantization-only JS = %v", q.JS)
	}
	if !q.TopMatch {
		t.Fatal("quantization flipped the top country")
	}
	if math.IsNaN(q.TV) {
		t.Fatal("TV is NaN")
	}
}
