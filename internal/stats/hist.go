package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over a closed interval. Use
// NewHistogram for linear bins or NewLogHistogram for logarithmic bins
// (the natural choice for view counts).
type Histogram struct {
	edges []float64 // len = bins+1, strictly increasing
	count []int64   // len = bins
	log   bool
}

// NewHistogram returns a histogram of `bins` equal-width bins over
// [lo, hi). It returns an error if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bins, got %d", bins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram needs hi > lo, got [%v, %v)", lo, hi)
	}
	h := &Histogram{edges: make([]float64, bins+1), count: make([]int64, bins)}
	w := (hi - lo) / float64(bins)
	for i := 0; i <= bins; i++ {
		h.edges[i] = lo + float64(i)*w
	}
	h.edges[bins] = hi // avoid FP drift on the last edge
	return h, nil
}

// NewLogHistogram returns a histogram with logarithmically spaced bin
// edges over [lo, hi), lo > 0.
func NewLogHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if lo <= 0 {
		return nil, fmt.Errorf("stats: log histogram needs lo > 0, got %v", lo)
	}
	h, err := NewHistogram(math.Log(lo), math.Log(hi), bins)
	if err != nil {
		return nil, err
	}
	for i := range h.edges {
		h.edges[i] = math.Exp(h.edges[i])
	}
	h.edges[0] = lo
	h.edges[len(h.edges)-1] = hi
	h.log = true
	return h, nil
}

// Add records one observation; one outside the range is dropped.
func (h *Histogram) Add(x float64) {
	if x < h.edges[0] || x >= h.edges[len(h.edges)-1] {
		return
	}
	// Binary search for the bin whose [edge[i], edge[i+1]) contains x.
	lo, hi := 0, len(h.count)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.edges[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	h.count[lo]++
}

// Bin returns the i-th bin's half-open interval and count.
func (h *Histogram) Bin(i int) (lo, hi float64, count int64) {
	return h.edges[i], h.edges[i+1], h.count[i]
}

// Render returns a fixed-width ASCII bar rendering, one line per bin,
// scaled so the fullest bin spans `width` characters. Empty histograms
// render a single note line.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	var maxC int64
	for _, c := range h.count {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	if maxC == 0 {
		b.WriteString("(empty histogram)\n")
		return b.String()
	}
	for i := range h.count {
		lo, hi, c := h.Bin(i)
		bar := int(float64(width) * float64(c) / float64(maxC))
		fmt.Fprintf(&b, "[%10.3g, %10.3g) %8d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	return b.String()
}
