// Package mapchart reimplements the slice of Google's retired Image
// Charts API that YouTube's 2011 "Statistics" panel used to render the
// per-country popularity world maps the paper scraped (§2, Fig. 1).
//
// Two facts of that API shape the paper's data and are reproduced
// faithfully here:
//
//   - Map charts carried their data in the "simple encoding" ("chd=s:"),
//     a base-62 single-character-per-value format whose alphabet
//     A–Z a–z 0–9 encodes integers 0..61. This is precisely why the
//     paper's popularity vector pop(v) is "an integer — from 0 to 61".
//   - Values are normalized per chart: the most intense country is pushed
//     to 61 and everything else scales proportionally, which is the
//     per-video factor K(v) of the paper's Eq. (1).
//
// The package provides the encoding/decoding, the per-video intensity
// quantization (views → pop(v)), and building/parsing of the legacy
// chart URLs ("cht=t&chtm=world"), so the simulated YouTube API can
// serve, and the crawler can scrape, byte-faithful chart URLs.
package mapchart

import (
	"fmt"
	"math"
	"strings"
)

// MaxIntensity is the largest value representable by one simple-encoding
// character — the paper's observed cap of 61.
const MaxIntensity = 61

const simpleAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

const extendedAlphabet = simpleAlphabet + "-."

// Sentinel errors for malformed chart data.
var (
	ErrBadSimpleChar   = fmt.Errorf("mapchart: character outside simple-encoding alphabet")
	ErrBadExtendedPair = fmt.Errorf("mapchart: malformed extended-encoding pair")
	ErrRange           = fmt.Errorf("mapchart: value out of encodable range")
	ErrBadURL          = fmt.Errorf("mapchart: not a parsable map-chart URL")
)

// EncodeSimple encodes integer values 0..61 into a "s:" payload. A
// negative value encodes as the underscore placeholder '_' ("missing
// data"), mirroring the API. Values above 61 are an error: quantize first.
func EncodeSimple(values []int) (string, error) {
	var b strings.Builder
	b.Grow(len(values))
	for i, v := range values {
		switch {
		case v < 0:
			b.WriteByte('_')
		case v <= MaxIntensity:
			b.WriteByte(simpleAlphabet[v])
		default:
			return "", fmt.Errorf("%w: value %d at index %d exceeds %d", ErrRange, v, i, MaxIntensity)
		}
	}
	return b.String(), nil
}

// decodeSimple decodes a simple-encoding payload. '_' (missing) decodes
// to -1.
func decodeSimple(s string) ([]int, error) {
	out := make([]int, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' {
			out = append(out, -1)
			continue
		}
		v := strings.IndexByte(simpleAlphabet, c)
		if v < 0 {
			return nil, fmt.Errorf("%w: %q at offset %d", ErrBadSimpleChar, c, i)
		}
		out = append(out, v)
	}
	return out, nil
}

// decodeExtended decodes an "e:" payload; "__" decodes to -1.
func decodeExtended(s string) ([]int, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("%w: odd payload length %d", ErrBadExtendedPair, len(s))
	}
	out := make([]int, 0, len(s)/2)
	for i := 0; i < len(s); i += 2 {
		if s[i] == '_' && s[i+1] == '_' {
			out = append(out, -1)
			continue
		}
		hi := strings.IndexByte(extendedAlphabet, s[i])
		lo := strings.IndexByte(extendedAlphabet, s[i+1])
		if hi < 0 || lo < 0 {
			return nil, fmt.Errorf("%w: %q at offset %d", ErrBadExtendedPair, s[i:i+2], i)
		}
		out = append(out, hi*64+lo)
	}
	return out, nil
}

// QuantizeInto converts a per-country intensity field into an integer
// scale, writing it into out, which must be as long as intensity; every
// entry is overwritten. The maximum intensity maps to maxLevel and the
// rest scale linearly (rounding to nearest). At MaxIntensity this is the
// chart's scale and implements the per-video normalization constant K(v)
// of the paper's Eq. (1): K(v) is whatever scales the largest
// views(v)[c]/ytube[c] ratio to 61. Other levels are the ablation knob
// that shows how much of the paper's reconstruction error is pure
// quantization: simple encoding tops out at 61, extended encoding at
// 4095. An all-zero or empty field quantizes to all zeros. It panics on
// a non-positive level (programming error).
func QuantizeInto(out []int, intensity []float64, maxLevel int) []int {
	if maxLevel <= 0 {
		panic("mapchart: QuantizeInto with non-positive level")
	}
	if len(out) != len(intensity) {
		panic("mapchart: QuantizeInto length mismatch")
	}
	var maxI float64
	for _, x := range intensity {
		if x > maxI {
			maxI = x
		}
	}
	for i, x := range intensity {
		out[i] = 0
		if x > 0 && maxI > 0 {
			out[i] = int(math.Round(float64(maxLevel) * x / maxI))
		}
	}
	return out
}

// IntensityInto converts per-country view counts into the intensity
// field of Eq. (1), views(v)[c]/ytube[c], given the per-country traffic
// volume (any vector proportional to ytube works; K(v) absorbs the
// scale), writing it into out, which must be as long as views; every
// entry is overwritten. Countries with non-positive traffic get zero
// intensity. It returns an error on length mismatch.
func IntensityInto(out, views, traffic []float64) ([]float64, error) {
	if len(views) != len(traffic) {
		return nil, fmt.Errorf("mapchart: views/traffic length mismatch %d != %d", len(views), len(traffic))
	}
	if len(out) != len(views) {
		panic("mapchart: IntensityInto length mismatch")
	}
	for i, v := range views {
		out[i] = 0
		if traffic[i] > 0 && v > 0 {
			out[i] = v / traffic[i]
		}
	}
	return out, nil
}
