package ytapi

import (
	"encoding/xml"
	"fmt"
	"strconv"
)

// The GData v2 API's default representation was Atom XML; JSON was the
// "alt=json" projection of it. The simulated server honors both, and
// the Atom side exists so the wire substrate is complete (and so tests
// can cross-check that both projections carry identical information).
//
// Namespace prefixes (media:, yt:, openSearch:) are elided: Go's
// encoding/xml resolves prefixed struct tags against namespace URLs on
// unmarshal but emits them literally on marshal, so prefixed documents
// cannot round-trip through one type. Element local names follow GData.

// atomFeed is the XML form of Feed.
type atomFeed struct {
	XMLName      xml.Name    `xml:"feed"`
	XMLNS        string      `xml:"xmlns,attr"`
	XMLNSMedia   string      `xml:"xmlns_media,attr"`
	XMLNSYt      string      `xml:"xmlns_yt,attr"`
	TotalResults int         `xml:"totalResults"`
	StartIndex   int         `xml:"startIndex"`
	ItemsPerPage int         `xml:"itemsPerPage"`
	Entries      []atomEntry `xml:"entry"`
}

// atomEntry is the XML form of Entry.
type atomEntry struct {
	XMLName xml.Name       `xml:"entry"`
	Group   atomMediaGroup `xml:"group"`
	Stats   *atomStats     `xml:"statistics,omitempty"`
	Authors []atomAuthor   `xml:"author"`
	PopMap  *atomPopMap    `xml:"popmap,omitempty"`
}

type atomMediaGroup struct {
	VideoID  string   `xml:"videoid"`
	Title    string   `xml:"title"`
	Keywords string   `xml:"keywords"`
	Category []string `xml:"category,omitempty"`
}

type atomStats struct {
	ViewCount     string `xml:"viewCount,attr"`
	FavoriteCount string `xml:"favoriteCount,attr,omitempty"`
}

type atomAuthor struct {
	Name     string `xml:"name"`
	Location string `xml:"location,omitempty"`
}

type atomPopMap struct {
	URL string `xml:"url,attr"`
}

// toAtom converts a wire entry to its Atom form.
func (e *Entry) toAtom() atomEntry {
	out := atomEntry{
		Group: atomMediaGroup{
			VideoID:  e.MediaGroup.VideoID.T,
			Title:    e.MediaGroup.Title.T,
			Keywords: e.MediaGroup.Keywords.T,
		},
	}
	for _, c := range e.MediaGroup.Category {
		out.Group.Category = append(out.Group.Category, c.T)
	}
	if e.Statistics != nil {
		out.Stats = &atomStats{ViewCount: e.Statistics.ViewCount, FavoriteCount: e.Statistics.FavoriteCount}
	}
	for _, a := range e.Authors {
		out.Authors = append(out.Authors, atomAuthor{Name: a.Name.T, Location: a.YtLocation.T})
	}
	if e.PopMap != nil {
		out.PopMap = &atomPopMap{URL: e.PopMap.URL}
	}
	return out
}

// marshalAtomFeed renders a feed as Atom XML.
func marshalAtomFeed(f *Feed) ([]byte, error) {
	total, _ := strconv.Atoi(f.TotalResults.T)
	start, _ := strconv.Atoi(f.StartIndex.T)
	per, _ := strconv.Atoi(f.ItemsPerPage.T)
	af := atomFeed{
		XMLNS:        "http://www.w3.org/2005/Atom",
		XMLNSMedia:   "http://search.yahoo.com/mrss/",
		XMLNSYt:      "http://gdata.youtube.com/schemas/2007",
		TotalResults: total,
		StartIndex:   start,
		ItemsPerPage: per,
	}
	for i := range f.Entries {
		af.Entries = append(af.Entries, f.Entries[i].toAtom())
	}
	out, err := xml.MarshalIndent(af, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ytapi: marshal atom feed: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// marshalAtomEntry renders a single entry document.
func marshalAtomEntry(e *Entry) ([]byte, error) {
	out, err := xml.MarshalIndent(e.toAtom(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ytapi: marshal atom entry: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}
