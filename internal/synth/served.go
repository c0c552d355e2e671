package synth

import "viewstags/internal/geo"

// Served is what a standalone node keeps of a catalog to answer
// /v1/preload: ids, tag lists and view totals, as flat slabs in catalog
// order — what a provider knows of its videos at serving time, so no
// ground truth. It holds no Video, no vocabulary and no generator, so
// whatever built it is collectable afterwards. Immutable once filled.
type Served struct {
	World      *geo.World
	IDs        []string
	TotalViews []int64
	// TagNames is the vocabulary's names, indexed by the ids in TagIDs.
	// Video v carries TagIDs[TagOff[v]:TagOff[v+1]], in tag order.
	TagNames []string
	TagIDs   []int32
	TagOff   []int32
}

// NewServed returns an empty served catalog over c's world and vocabulary
// with room for n videos of the configured mean tag-set size (a longer
// draw grows the tag ids as append does); Add fills it.
func (c *Catalog) NewServed(n int) *Served {
	s := &Served{
		World:      c.World,
		IDs:        make([]string, 0, n),
		TotalViews: make([]int64, 0, n),
		TagNames:   make([]string, c.Vocab.N()),
		TagIDs:     make([]int32, 0, n*c.Config.TagSet.MeanTags),
		TagOff:     make([]int32, 1, n+1),
	}
	for i := range s.TagNames {
		s.TagNames[i] = c.Vocab.Name(i)
	}
	return s
}

// Add appends v, copying what it keeps: v may be scratch the caller
// overwrites next.
func (s *Served) Add(v *Video) {
	s.IDs = append(s.IDs, v.ID)
	s.TotalViews = append(s.TotalViews, v.TotalViews)
	for _, t := range v.TagIDs {
		s.TagIDs = append(s.TagIDs, int32(t))
	}
	s.TagOff = append(s.TagOff, int32(len(s.TagIDs)))
}

// Served collects the served form of every video in c.
func (c *Catalog) Served() *Served {
	s := c.NewServed(len(c.Videos))
	for i := range c.Videos {
		s.Add(&c.Videos[i])
	}
	return s
}

// N returns the number of videos.
func (s *Served) N() int { return len(s.IDs) }

// TopByViews returns the indices of the k most-viewed served videos, most
// viewed first (synth.TopK: ties go to the lower index).
func (s *Served) TopByViews(k int) []int {
	return TopK(s.N(), k, func(i int) (int64, bool) { return s.TotalViews[i], true })
}
