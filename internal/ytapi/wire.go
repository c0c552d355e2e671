// Package ytapi simulates the slice of the YouTube GData API v2 (retired
// 2015) that the paper's March-2011 crawler consumed: localized
// most_popular standard feeds, video entries, and related-videos feeds,
// all as GData-flavored JSON ("alt=json" naming: media$group, yt$..., $t).
// JSON is the only representation: a request with no alt or alt=json gets
// it, and any other alt (GData's historical Atom default included) is a
// 400 in the API's error envelope.
//
// The popularity world map the paper scraped from watch pages is exposed
// as a chart URL in each entry (field yt$popmap), built with the exact
// legacy Google Image-Chart encoding (internal/mapchart), so the crawler
// parses byte-faithful chart URLs rather than being handed clean vectors.
//
// The server adds the operational behaviors a real crawler had to cope
// with: API-key checks, token-bucket rate limiting (HTTP 403 quota
// errors), injectable latency and transient 5xx faults, and
// start-index/max-results pagination.
package ytapi

import "fmt"

// Text is GData's {"$t": "..."} string wrapper.
type Text struct {
	T string `json:"$t"`
}

// IntText is GData's string-encoded integer wrapper.
type IntText struct {
	T string `json:"$t"`
}

// MediaGroup carries the video's media metadata, GData-style.
type MediaGroup struct {
	VideoID  Text   `json:"yt$videoid"`
	Title    Text   `json:"media$title"`
	Keywords Text   `json:"media$keywords"` // comma-separated tags
	Category []Text `json:"media$category,omitempty"`
}

// Statistics carries view counts as decimal strings (the GData wire
// convention — real feeds exceeded int32 long before the API died).
type Statistics struct {
	ViewCount     string `json:"viewCount"`
	FavoriteCount string `json:"favoriteCount,omitempty"`
}

// Author is the uploader block; YtLocation carries the uploader country.
type Author struct {
	Name       Text `json:"name"`
	YtLocation Text `json:"yt$location,omitempty"`
}

// PopMap is this reproduction's stand-in for the watch-page popularity
// world map: the legacy chart URL the paper's crawler scraped.
type PopMap struct {
	URL string `json:"url"`
}

// Entry is one video entry.
type Entry struct {
	MediaGroup MediaGroup  `json:"media$group"`
	Statistics *Statistics `json:"yt$statistics,omitempty"`
	Authors    []Author    `json:"author,omitempty"`
	PopMap     *PopMap     `json:"yt$popmap,omitempty"`
}

// EntryDoc is the single-entry response envelope.
type EntryDoc struct {
	Entry Entry `json:"entry"`
}

// Feed is a multi-entry response (standard feeds, related feeds).
type Feed struct {
	Entries      []Entry `json:"entry"`
	TotalResults IntText `json:"openSearch$totalResults"`
	StartIndex   IntText `json:"openSearch$startIndex"`
	ItemsPerPage IntText `json:"openSearch$itemsPerPage"`
}

// FeedDoc is the feed response envelope.
type FeedDoc struct {
	Feed Feed `json:"feed"`
}

// APIError is the GData error envelope (simplified).
type APIError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface so clients can surface it.
func (e *APIError) Error() string {
	return fmt.Sprintf("ytapi: server error %d: %s", e.Code, e.Message)
}
