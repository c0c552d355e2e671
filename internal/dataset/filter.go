package dataset

import (
	"fmt"

	"viewstags/internal/geo"
)

// FilterReport is the §2 audit trail: how many raw records the filter
// saw, how many it dropped for which reason, and what survived. The
// paper's instance of this table is: 1,063,844 crawled; 6,736 dropped
// untagged; 691,349 kept.
type FilterReport struct {
	Crawled      int
	Untagged     int
	NoPopVector  int
	BadPopVector int
	Malformed    int
	Kept         int
}

// String renders the report in the §2 narrative order.
func (fr FilterReport) String() string {
	return fmt.Sprintf("crawled=%d untagged=%d noPop=%d badPop=%d malformed=%d kept=%d",
		fr.Crawled, fr.Untagged, fr.NoPopVector, fr.BadPopVector, fr.Malformed, fr.Kept)
}

// DropRate returns the fraction of crawled records that were dropped.
func (fr FilterReport) DropRate() float64 {
	if fr.Crawled == 0 {
		return 0
	}
	return float64(fr.Crawled-fr.Kept) / float64(fr.Crawled)
}

// Clean is a filtered dataset: admitted records with densified
// popularity vectors, ready for reconstruction.
type Clean struct {
	World   *geo.World
	Records []Record
	Pop     [][]int // parallel to Records: dense 0..61 vectors
	Report  FilterReport
}

// Admit applies the paper's §2 admission rules to one raw record and
// counts it in the report: drop a video with no tags, then one whose
// popularity vector is missing, undecodable, or empty. An admitted
// record's dense vector is returned, in scratch's backing array when it
// holds a country table's worth. It never fails on bad data — bad data is
// the phenomenon being counted — and a dropped record costs no allocation.
func (fr *FilterReport) Admit(world *geo.World, r *Record, scratch []int) (pop []int, ok bool) {
	fr.Crawled++
	if r.VideoID == "" || r.TotalViews < 0 {
		fr.Malformed++
		return nil, false
	}
	if len(r.Tags) == 0 {
		fr.Untagged++
		return nil, false
	}
	pop, fault, _ := r.densify(scratch, world)
	switch fault {
	case popOK:
		fr.Kept++
		return pop, true
	case popMissing:
		fr.NoPopVector++
	default:
		fr.BadPopVector++
	}
	return nil, false
}

// CountKept counts one record as Admit counts a record it keeps, for a
// producer that knows the record passes — tagged, with a popularity vector
// that densifies — and has no use for the record or its vector, so need
// not build them.
func (fr *FilterReport) CountKept() {
	fr.Crawled++
	fr.Kept++
}

// Filter applies Admit to every raw record and keeps the admitted ones
// with their dense vectors.
func Filter(world *geo.World, raw []Record) *Clean {
	c := &Clean{World: world}
	for i := range raw {
		if pop, ok := c.Report.Admit(world, &raw[i], nil); ok {
			c.Records = append(c.Records, raw[i])
			c.Pop = append(c.Pop, pop)
		}
	}
	return c
}

// UniqueTags returns the number of distinct tags across the kept records
// and the total view count — the other two headline numbers of §2
// (705,415 unique tags; 173,288,616,473 views in the paper's instance).
func (c *Clean) UniqueTags() (int, int64) {
	seen := make(map[string]struct{})
	var views int64
	for i := range c.Records {
		for _, t := range c.Records[i].Tags {
			seen[t] = struct{}{}
		}
		views += c.Records[i].TotalViews
	}
	return len(seen), views
}
