package synth

import (
	"viewstags/internal/dataset"
	"viewstags/internal/geo"
)

// Records converts the catalog into the dataset's crawl-record schema —
// exactly what a complete, loss-free snowball crawl of the simulated API
// would collect (the ytapi/crawler tests verify that equivalence over
// HTTP). Binaries and benchmarks use this fast path when the crawl
// itself is not the subject of the experiment.
func (c *Catalog) Records() []dataset.Record {
	out := make([]dataset.Record, len(c.Videos))
	for i := range c.Videos {
		c.RecordInto(&out[i], &c.Videos[i])
	}
	return out
}

// RecordInto overwrites rec with v's crawl record over the catalog's
// world and vocabulary (v need not be one of c.Videos: a Generator's
// caller converts each video as it is produced). rec's Tags, PopCodes and
// PopValues backing arrays are reused, so a caller that passes the same
// Record every time allocates none and a zero Record gets its own.
func (c *Catalog) RecordInto(rec *dataset.Record, v *Video) {
	names := rec.Tags[:0]
	if names == nil {
		// A crawl reports an untagged video as "tags":[], not null.
		names = make([]string, 0, len(v.TagIDs))
	}
	for _, id := range v.TagIDs {
		names = append(names, c.Vocab.Name(id))
	}
	codes, values := rec.PopCodes[:0], rec.PopValues[:0]
	switch v.PopState {
	case PopStateOK:
		for ci, x := range v.PopVector {
			if x > 0 {
				codes = append(codes, c.World.Country(geo.CountryID(ci)).Code)
				values = append(values, x)
			}
		}
	case PopStateCorrupt:
		// The watch page rendered a data-less map: the scrape yields
		// a handful of countries, all zero (matches ytapi's serving).
		codes = append(codes, "US", "GB", "FR")
		values = append(values, 0, 0, 0)
	case PopStateEmpty:
		// No map at all.
	}
	*rec = dataset.Record{
		VideoID:    v.ID,
		Title:      v.Title,
		Uploader:   c.World.Country(v.Upload).Code,
		Category:   v.Category,
		TotalViews: v.TotalViews,
		Tags:       names,
		PopCodes:   codes,
		PopValues:  values,
	}
}
