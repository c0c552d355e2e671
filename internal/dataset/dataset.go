// Package dataset defines the crawl-record schema — the per-video
// metadata tuple the paper's dataset carries (§2: id, title, total view
// count, per-country popularity vector, tag set) — together with JSONL
// persistence and the paper's filtering pipeline.
package dataset

import (
	"fmt"

	"viewstags/internal/geo"
	"viewstags/internal/mapchart"
)

// Record is one crawled video, as the crawler scraped it. Pop carries the
// raw Map-Chart country/intensity pairs; it may be missing (nil Codes) or
// inconsistent, which is precisely what the filtering step removes.
type Record struct {
	VideoID    string   `json:"video_id"`
	Title      string   `json:"title"`
	Uploader   string   `json:"uploader,omitempty"` // upload country code when known
	Category   string   `json:"category,omitempty"`
	TotalViews int64    `json:"total_views"`
	Tags       []string `json:"tags"`

	// Popularity map as scraped: parallel country codes and 0..61
	// intensities. Kept in wire form (codes, not dense vectors) because
	// the chart's country list is per-video.
	PopCodes  []string `json:"pop_codes,omitempty"`
	PopValues []int    `json:"pop_values,omitempty"`
}

// PopVector densifies the record's popularity map onto the world's
// country table. It returns an error when the record's map is absent,
// inconsistent, out of range, entirely zero, or mentions unknown
// countries — the "incorrect or empty popularity vector" conditions of §2.
func (r *Record) PopVector(world *geo.World) ([]int, error) {
	pop, fault, at := r.densify(nil, world)
	if fault == popOK {
		return pop, nil
	}
	return nil, r.popError(fault, at)
}

// popFault is why a popularity map did not densify. It is a plain value:
// FilterReport.Admit counts faults by the thousand and prints none, so
// the error is formatted only for a caller that asked for one.
type popFault int

const (
	popOK popFault = iota
	popMissing
	popLengths        // codes and values differ in number
	popUnknownCountry // at names the pair
	popIntensity      // at names the pair
	popAllZero
)

func (r *Record) popError(fault popFault, at int) error {
	switch fault {
	case popMissing:
		return fmt.Errorf("dataset: video %s: %w", r.VideoID, ErrNoPopVector)
	case popLengths:
		return fmt.Errorf("dataset: video %s: %w: %d codes, %d values",
			r.VideoID, ErrBadPopVector, len(r.PopCodes), len(r.PopValues))
	case popUnknownCountry:
		return fmt.Errorf("dataset: video %s: %w: unknown country %q", r.VideoID, ErrBadPopVector, r.PopCodes[at])
	case popIntensity:
		return fmt.Errorf("dataset: video %s: %w: intensity %d", r.VideoID, ErrBadPopVector, r.PopValues[at])
	default:
		return fmt.Errorf("dataset: video %s: %w: all-zero map", r.VideoID, ErrBadPopVector)
	}
}

// densify is PopVector into out's backing array when it holds a country
// table's worth, and into a fresh slice otherwise — so a caller that drops
// each vector before the next record allocates none — reporting a refused
// map as a fault and the pair it was found at.
func (r *Record) densify(out []int, world *geo.World) (pop []int, fault popFault, at int) {
	if len(r.PopCodes) == 0 {
		return nil, popMissing, 0
	}
	if len(r.PopCodes) != len(r.PopValues) {
		return nil, popLengths, 0
	}
	if cap(out) < world.N() {
		out = make([]int, world.N())
	}
	out = out[:world.N()]
	clear(out)
	any := false
	for i, code := range r.PopCodes {
		id, ok := world.ByCode(code)
		if !ok {
			return nil, popUnknownCountry, i
		}
		v := r.PopValues[i]
		if v < -1 || v > mapchart.MaxIntensity {
			return nil, popIntensity, i
		}
		if v > 0 {
			any = true
			out[id] = v
		}
	}
	if !any {
		return nil, popAllZero, 0
	}
	return out, popOK, 0
}

// Sentinel errors PopVector wraps.
var (
	ErrNoPopVector  = fmt.Errorf("dataset: popularity vector missing")
	ErrBadPopVector = fmt.Errorf("dataset: popularity vector invalid")
)
