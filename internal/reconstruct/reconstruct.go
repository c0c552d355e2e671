// Package reconstruct implements the analytical core of the paper's §3:
// recovering an approximate per-country view field views(v)[c] for every
// video from (a) its quantized Map-Chart popularity vector pop(v), (b)
// its total view count, and (c) an external estimate p̂_yt of the
// per-country YouTube traffic distribution.
//
// The derivation, from the paper's Eq. (1)–(2): pop(v)[c] is an
// intensity, pop(v)[c] = views(v)[c]/ytube[c] × K(v), with ytube[c] ≈
// p̂_yt[c]·T_yt. Inverting for views and eliminating the per-video
// normalization K(v) (and T_yt with it) against the known total:
//
//	views(v)[c] = total(v) · pop(v)[c]·p̂_yt[c] / Σ_c' pop(v)[c']·p̂_yt[c']
//
// The quantization to 62 integer levels is irreversible, so the result
// is an approximation; Quality() scores it against ground truth when one
// exists (synthetic catalogs).
package reconstruct

import (
	"fmt"

	"viewstags/internal/dist"
)

// Views reconstructs the per-country view field of one video. pop is the
// dense 0..61 vector (entries < 0 are treated as "no data" = 0), pyt is
// the estimated traffic distribution, total the video's total views. The
// result sums to total (up to rounding; see ViewsFloat for the exact
// real-valued field).
func Views(pop []int, pyt []float64, total int64) ([]int64, error) {
	f, err := ViewsFloat(pop, pyt, float64(total))
	if err != nil {
		return nil, err
	}
	return roundPreservingSum(f, total), nil
}

// ViewsFloat is Views without integer rounding.
func ViewsFloat(pop []int, pyt []float64, total float64) ([]float64, error) {
	return ViewsFloatInto(make([]float64, len(pop)), pop, pyt, total)
}

// ViewsFloatInto is ViewsFloat writing the field into out, which must be
// as long as pop; every entry is overwritten. On error out's contents are
// unspecified.
func ViewsFloatInto(out []float64, pop []int, pyt []float64, total float64) ([]float64, error) {
	if len(pop) != len(pyt) || len(out) != len(pop) {
		return nil, fmt.Errorf("reconstruct: pop/pyt length mismatch %d != %d", len(pop), len(pyt))
	}
	if total < 0 {
		return nil, fmt.Errorf("reconstruct: negative total %v", total)
	}
	var denom float64
	for c, p := range pop {
		out[c] = 0
		if p <= 0 || pyt[c] <= 0 {
			continue
		}
		w := float64(p) * pyt[c]
		out[c] = w
		denom += w
	}
	if denom == 0 {
		return nil, fmt.Errorf("reconstruct: %w", ErrNoSignal)
	}
	for c := range out {
		out[c] = out[c] / denom * total
	}
	return out, nil
}

// ErrNoSignal is returned when a popularity vector carries no usable
// mass (all zeros, or nonzero only where the traffic estimate is zero).
var ErrNoSignal = fmt.Errorf("reconstruct: popularity vector carries no signal")

// roundPreservingSum rounds the real field to integers that sum exactly
// to total, assigning remainders by largest fractional part.
func roundPreservingSum(f []float64, total int64) []int64 {
	out := make([]int64, len(f))
	var assigned int64
	type frac struct {
		idx int
		rem float64
	}
	rems := make([]frac, 0, len(f))
	for c, x := range f {
		n := int64(x)
		out[c] = n
		assigned += n
		rems = append(rems, frac{idx: c, rem: x - float64(n)})
	}
	// Distribute the deficit to the largest fractional parts.
	deficit := total - assigned
	for i := 0; i < len(rems)-1; i++ {
		maxJ := i
		for j := i + 1; j < len(rems); j++ {
			if rems[j].rem > rems[maxJ].rem {
				maxJ = j
			}
		}
		rems[i], rems[maxJ] = rems[maxJ], rems[i]
		if int64(i) >= deficit {
			break
		}
	}
	for i := int64(0); i < deficit && int(i) < len(rems); i++ {
		out[rems[i].idx]++
	}
	return out
}

// Quality scores a reconstruction against ground truth.
type Quality struct {
	JS       float64 // Jensen–Shannon divergence (bits) between the fields
	TV       float64 // total-variation distance
	TopMatch bool    // does the argmax country agree?
}

// Score compares a reconstructed field against the ground-truth field.
func Score(reconstructed []int64, truth []int64) (Quality, error) {
	if len(reconstructed) != len(truth) {
		return Quality{}, fmt.Errorf("reconstruct: score length mismatch %d != %d", len(reconstructed), len(truth))
	}
	r := toFloat(reconstructed)
	tr := toFloat(truth)
	js, err := dist.JS(r, tr)
	if err != nil {
		return Quality{}, err
	}
	tv, err := dist.TV(r, tr)
	if err != nil {
		return Quality{}, err
	}
	return Quality{
		JS:       js,
		TV:       tv,
		TopMatch: dist.ArgMax(r) == dist.ArgMax(tr),
	}, nil
}

func toFloat(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
