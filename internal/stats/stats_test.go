package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Fatalf("N = %d", s.n)
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if !almost(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v", s.Variance())
	}
	if s.min != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.min, s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.n != 0 {
		t.Fatal("empty summary not zeroed")
	}
	s.Add(3)
	if s.Variance() != 0 {
		t.Fatalf("single-observation variance = %v", s.Variance())
	}
	if s.min != 3 || s.Max() != 3 {
		t.Fatal("single-observation extrema wrong")
	}
}

func TestSummaryMatchesBatchProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var s Summary
		for i, v := range raw {
			xs[i] = float64(v)
			s.Add(float64(v))
		}
		return almost(s.Mean(), Mean(xs), 1e-9*(1+math.Abs(s.Mean())))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.5) did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestMedianEmpty(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("median of empty input should be 0")
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); !almost(g, 0, 1e-12) {
		t.Errorf("equal Gini = %v", g)
	}
	// One holder of everything among n=4: Gini = (n-1)/n = 0.75.
	if g := Gini([]float64{0, 0, 0, 8}); !almost(g, 0.75, 1e-12) {
		t.Errorf("concentrated Gini = %v", g)
	}
	if g := Gini(nil); g != 0 {
		t.Errorf("empty Gini = %v", g)
	}
	if g := Gini([]float64{0, 0}); g != 0 {
		t.Errorf("zero-total Gini = %v", g)
	}
}

func TestGiniInUnitRangeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		g := Gini(xs)
		return g >= -1e-12 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 1, 1, 1}); !almost(h, 2, 1e-12) {
		t.Errorf("uniform-4 entropy = %v, want 2 bits", h)
	}
	if h := Entropy([]float64{1, 0, 0}); !almost(h, 0, 1e-12) {
		t.Errorf("point-mass entropy = %v, want 0", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Errorf("empty entropy = %v", h)
	}
}

func TestEntropyBoundedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		ws := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			ws[i] = float64(v)
			total += float64(v)
		}
		h := Entropy(ws)
		if total == 0 {
			return h == 0
		}
		return h >= -1e-12 && h <= math.Log2(float64(len(ws)))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.999} {
		h.Add(x)
	}
	h.Add(-1) // under: dropped
	h.Add(10) // over (right-open): dropped
	wantCounts := []int64{2, 1, 1, 0, 1}
	for i, want := range wantCounts {
		if _, _, c := h.Bin(i); c != want {
			t.Fatalf("bin %d count = %d, want %d", i, c, want)
		}
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewLogHistogram(0, 10, 3); err == nil {
		t.Fatal("log histogram with lo=0 accepted")
	}
}

func TestLogHistogramEdges(t *testing.T) {
	h, err := NewLogHistogram(1, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Edges should be 1, 10, 100, 1000.
	wantEdges := []float64{1, 10, 100, 1000}
	for i, want := range wantEdges[:3] {
		lo, _, _ := h.Bin(i)
		if !almost(lo, want, 1e-9) {
			t.Fatalf("edge %d = %v, want %v", i, lo, want)
		}
	}
	h.Add(5)
	h.Add(50)
	h.Add(500)
	for i := 0; i < 3; i++ {
		if _, _, c := h.Bin(i); c != 1 {
			t.Fatalf("log bin %d count = %d, want 1", i, c)
		}
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 4, 2)
	h.Add(1)
	h.Add(1)
	h.Add(3)
	out := h.Render(10)
	if out == "" {
		t.Fatal("empty render")
	}
	empty, _ := NewHistogram(0, 1, 2)
	if got := empty.Render(10); got != "(empty histogram)\n" {
		t.Fatalf("empty render = %q", got)
	}
}
