package synth

import (
	"math"

	"viewstags/internal/xrand"
)

// idAlphabet is YouTube's video-id alphabet (URL-safe base64).
const idAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

// videoID deterministically derives an 11-character YouTube-shaped id
// from the catalog seed and the video's dense index. Distinct
// (seed, index) pairs map to distinct ids: the mapping is a bijective
// mix of a 64-bit word rendered in base64, and 64 bits cover 10 full
// characters plus a constrained 11th, matching real id shapes.
func videoID(seed uint64, index int) string {
	x := mix(seed ^ (uint64(index)*0x9e3779b97f4a7c15 + 0x85ebca6b))
	var b [11]byte
	for i := 0; i < 10; i++ {
		b[i] = idAlphabet[x&63]
		x >>= 6
	}
	// 4 bits remain; real ids' final character is similarly constrained.
	b[10] = idAlphabet[(x&15)<<2]
	return string(b[:])
}

// mix is one round of SplitMix64 finalization — a bijection on uint64,
// which is what makes videoID collision-free for a fixed seed.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// boundedPareto draws a bounded Pareto(alpha) variate in [lo, hi] by
// inverse-CDF sampling — the total-view-count model. The unbounded
// Pareto's tail is clipped at hi so a single video cannot exceed the
// catalog's plausible maximum.
func boundedPareto(src *xrand.Source, alpha float64, lo, hi int64) int64 {
	l := float64(lo)
	h := float64(hi)
	a := alpha - 1 // tail exponent of the survival function over views
	u := src.Float64()
	// Inverse CDF of bounded Pareto with exponent a on [l, h].
	la := math.Pow(l, -a)
	ha := math.Pow(h, -a)
	x := math.Pow(la-u*(la-ha), -1/a)
	if x < l {
		x = l
	}
	if x > h {
		x = h
	}
	return int64(x)
}

// titlePatterns give synthetic titles a recognizable UGC shape: the text
// before, between and after the two names a title carries.
var titlePatterns = [][3]string{
	{"", " - ", " (Official Video)"},
	{"", " ", " HD"},
	{"", " | ", ""},
	{"", " - ", " live"},
	{"BEST OF ", " ", ""},
	{"", " vs ", ""},
}

// synthTitle builds a title from the video's tags (or category when
// untagged), mirroring how uploader titles echo their tags. It is
// assembled in the producer stage's scratch: the string is the one
// allocation.
func (g *Generator) synthTitle(v *Video) string {
	pat := &titlePatterns[g.titleSrc.Intn(len(titlePatterns))]
	a, b := v.Category, v.ID[:4]
	if len(v.TagIDs) >= 2 {
		a, b = g.voc.Name(v.TagIDs[0]), g.voc.Name(v.TagIDs[1])
	} else if len(v.TagIDs) == 1 {
		a = g.voc.Name(v.TagIDs[0])
	}
	t := append(g.title[:0], pat[0]...)
	t = append(t, a...)
	t = append(t, pat[1]...)
	t = append(t, b...)
	g.title = append(t, pat[2]...)
	return string(g.title)
}
