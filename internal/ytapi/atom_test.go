package ytapi

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func sampleEntry() Entry {
	return Entry{
		MediaGroup: MediaGroup{
			VideoID:  Text{T: "abc12345678"},
			Title:    Text{T: "samba & friends <live>"},
			Keywords: Text{T: "samba,favela,live music"},
			Category: []Text{{T: "Music"}},
		},
		Statistics: &Statistics{ViewCount: "123456789", FavoriteCount: "12"},
		Authors:    []Author{{Name: Text{T: "user_abc"}, YtLocation: Text{T: "BR"}}},
		PopMap:     &PopMap{URL: "http://chart.apis.google.com/chart?cht=t&chtm=world&chld=BRPT&chd=s:9a&chs=440x220"},
	}
}

func TestAtomEntryRoundTrip(t *testing.T) {
	in := sampleEntry()
	data, err := marshalAtomEntry(&in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := unmarshalAtomEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.MediaGroup.VideoID.T != in.MediaGroup.VideoID.T {
		t.Fatalf("videoid = %q", out.MediaGroup.VideoID.T)
	}
	if out.MediaGroup.Title.T != in.MediaGroup.Title.T {
		t.Fatalf("title lost XML-escaped content: %q", out.MediaGroup.Title.T)
	}
	if out.Statistics == nil || out.Statistics.ViewCount != "123456789" {
		t.Fatalf("statistics = %+v", out.Statistics)
	}
	if out.PopMap == nil || out.PopMap.URL != in.PopMap.URL {
		t.Fatalf("popmap = %+v", out.PopMap)
	}
	if len(out.Authors) != 1 || out.Authors[0].YtLocation.T != "BR" {
		t.Fatalf("authors = %+v", out.Authors)
	}
}

func TestAtomFeedRoundTrip(t *testing.T) {
	feed := Feed{
		Entries:      []Entry{sampleEntry(), sampleEntry()},
		TotalResults: IntText{T: "20"},
		StartIndex:   IntText{T: "1"},
		ItemsPerPage: IntText{T: "2"},
	}
	data, err := marshalAtomFeed(&feed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), xml.Header) {
		t.Fatal("missing XML header")
	}
	out, err := unmarshalAtomFeed(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 2 || out.TotalResults.T != "20" || out.StartIndex.T != "1" {
		t.Fatalf("feed = %+v", out)
	}
}

func TestServerServesAtomByDefault(t *testing.T) {
	cat, g := testWorldParts(t)
	srv, err := NewServer(cat, g, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// GData's default representation (no alt param) is Atom.
	resp, err := http.Get(ts.URL + "/feeds/api/videos/" + cat.Videos[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "application/atom+xml" {
		t.Fatalf("default content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := unmarshalAtomEntry(body)
	if err != nil {
		t.Fatalf("atom body unparsable: %v", err)
	}
	if entry.VideoIDString() != cat.Videos[0].ID {
		t.Fatalf("atom entry id = %q", entry.VideoIDString())
	}
}

func TestAtomAndJSONCarrySameInformation(t *testing.T) {
	cat, g := testWorldParts(t)
	srv, err := NewServer(cat, g, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// JSON via the typed client.
	client := NewClient(ts.URL, "", ts.Client())
	jsonEntry, err := client.Video(context.Background(), cat.Videos[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	// Atom via raw GET.
	resp, err := http.Get(ts.URL + "/feeds/api/videos/" + cat.Videos[0].ID + "?alt=atom")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	atomEntry, err := unmarshalAtomEntry(body)
	if err != nil {
		t.Fatal(err)
	}

	jr := jsonEntry.ToRecord()
	ar := atomEntry.ToRecord()
	if jr.VideoID != ar.VideoID || jr.TotalViews != ar.TotalViews ||
		len(jr.Tags) != len(ar.Tags) || jr.Uploader != ar.Uploader {
		t.Fatalf("projections disagree:\njson: %+v\natom: %+v", jr, ar)
	}
	for i := range jr.Tags {
		if jr.Tags[i] != ar.Tags[i] {
			t.Fatalf("tag %d differs: %q vs %q", i, jr.Tags[i], ar.Tags[i])
		}
	}
	if len(jr.PopCodes) != len(ar.PopCodes) {
		t.Fatalf("pop codes differ: %v vs %v", jr.PopCodes, ar.PopCodes)
	}
}

func TestAtomFeedServedForStandardFeed(t *testing.T) {
	cat, g := testWorldParts(t)
	srv, err := NewServer(cat, g, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/feeds/api/standardfeeds/BR/most_popular?alt=atom")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := unmarshalAtomFeed(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(feed.Entries) != 10 {
		t.Fatalf("atom feed has %d entries", len(feed.Entries))
	}
}

// fromAtom converts an Atom entry back to the wire form: the decoding
// half the round-trip tests hold MarshalAtom* against.
func (a *atomEntry) fromAtom() Entry {
	e := Entry{
		MediaGroup: MediaGroup{
			VideoID:  Text{T: a.Group.VideoID},
			Title:    Text{T: a.Group.Title},
			Keywords: Text{T: a.Group.Keywords},
		},
	}
	for _, c := range a.Group.Category {
		e.MediaGroup.Category = append(e.MediaGroup.Category, Text{T: c})
	}
	if a.Stats != nil {
		e.Statistics = &Statistics{ViewCount: a.Stats.ViewCount, FavoriteCount: a.Stats.FavoriteCount}
	}
	for _, au := range a.Authors {
		e.Authors = append(e.Authors, Author{Name: Text{T: au.Name}, YtLocation: Text{T: au.Location}})
	}
	if a.PopMap != nil {
		e.PopMap = &PopMap{URL: a.PopMap.URL}
	}
	return e
}

// unmarshalAtomFeed parses an Atom feed document.
func unmarshalAtomFeed(data []byte) (*Feed, error) {
	var af atomFeed
	if err := xml.Unmarshal(data, &af); err != nil {
		return nil, fmt.Errorf("ytapi: unmarshal atom feed: %w", err)
	}
	f := &Feed{
		TotalResults: IntText{T: strconv.Itoa(af.TotalResults)},
		StartIndex:   IntText{T: strconv.Itoa(af.StartIndex)},
		ItemsPerPage: IntText{T: strconv.Itoa(af.ItemsPerPage)},
	}
	for i := range af.Entries {
		f.Entries = append(f.Entries, af.Entries[i].fromAtom())
	}
	return f, nil
}

// unmarshalAtomEntry parses a single entry document.
func unmarshalAtomEntry(data []byte) (*Entry, error) {
	var ae atomEntry
	if err := xml.Unmarshal(data, &ae); err != nil {
		return nil, fmt.Errorf("ytapi: unmarshal atom entry: %w", err)
	}
	e := ae.fromAtom()
	return &e, nil
}
