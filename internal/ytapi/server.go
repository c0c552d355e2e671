package ytapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"viewstags/internal/geo"
	"viewstags/internal/mapchart"
	"viewstags/internal/relgraph"
	"viewstags/internal/synth"
	"viewstags/internal/tags"
	"viewstags/internal/xrand"
)

// ServerConfig controls the simulated API's operational behavior.
type ServerConfig struct {
	// APIKey, when non-empty, must be presented as the "key" query
	// parameter; requests without it get HTTP 401.
	APIKey string

	// RatePerSec and Burst configure the token-bucket rate limiter; 0
	// RatePerSec disables limiting. Rejected requests get HTTP 403 with
	// the GData "too_many_recent_calls" message.
	RatePerSec float64
	Burst      float64

	// FaultRate is the probability that a request fails with HTTP 503
	// (transient), exercising crawler retries. FaultSeed makes the fault
	// stream deterministic.
	FaultRate float64
	FaultSeed uint64

	// Latency, when positive, is added to every response — crawl pacing
	// realism for examples; tests leave it 0.
	Latency time.Duration

	// MaxResults caps max-results (the real API capped at 50).
	MaxResults int

	// MostPopularSize is how many entries a most_popular standard feed
	// carries (the paper used the top 10).
	MostPopularSize int
}

// DefaultServerConfig returns the configuration used by tests and
// examples: deterministic, no latency, no faults, no key.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		MaxResults:      50,
		MostPopularSize: 10,
	}
}

// Server simulates the GData API over a synthetic catalog and its
// related-videos graph. It implements http.Handler.
type Server struct {
	cat   *synth.Catalog
	graph *relgraph.Graph
	cfg   ServerConfig
	mux   *http.ServeMux

	// searchIndex maps a normalized tag to its videos, view-descending —
	// the backing store of the /feeds/api/videos?q= search endpoint.
	searchIndex map[string][]int

	mu       sync.Mutex
	tokens   float64
	lastFill time.Time
	faults   *xrand.Source

	topByCountry map[geo.CountryID][]int
	entries      []Entry // precomputed per-video entries
}

// NewServer builds the API server. Precomputing entries and per-country
// tops makes request handling allocation-light, which matters when a
// crawl pulls hundreds of thousands of feeds.
func NewServer(cat *synth.Catalog, graph *relgraph.Graph, cfg ServerConfig) (*Server, error) {
	if cfg.MaxResults <= 0 {
		cfg.MaxResults = 50
	}
	if cfg.MostPopularSize <= 0 {
		cfg.MostPopularSize = 10
	}
	if cfg.FaultRate < 0 || cfg.FaultRate > 1 {
		return nil, fmt.Errorf("ytapi: FaultRate %v outside [0,1]", cfg.FaultRate)
	}
	if graph != nil && graph.N() != len(cat.Videos) {
		return nil, fmt.Errorf("ytapi: graph has %d vertices for %d videos", graph.N(), len(cat.Videos))
	}
	s := &Server{
		cat:      cat,
		graph:    graph,
		cfg:      cfg,
		tokens:   cfg.Burst,
		lastFill: time.Now(),
		faults:   xrand.NewSource(cfg.FaultSeed),
	}
	s.buildEntries()
	s.buildTops()
	s.buildSearchIndex()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/feeds/api/standardfeeds/", s.handleStandardFeed)
	s.mux.HandleFunc("/feeds/api/videos/", s.handleVideos)
	s.mux.HandleFunc("/feeds/api/videos", s.handleSearch)
	return s, nil
}

func (s *Server) buildEntries() {
	world := s.cat.World
	s.entries = make([]Entry, len(s.cat.Videos))
	for i := range s.cat.Videos {
		v := &s.cat.Videos[i]
		e := Entry{
			MediaGroup: MediaGroup{
				VideoID:  Text{T: v.ID},
				Title:    Text{T: v.Title},
				Keywords: Text{T: tags.JoinTagList(v.TagNames(s.cat.Vocab))},
				Category: []Text{{T: v.Category}},
			},
			Statistics: &Statistics{
				ViewCount:     strconv.FormatInt(v.TotalViews, 10),
				FavoriteCount: "0",
			},
			Authors: []Author{{
				Name:       Text{T: "user_" + v.ID[:5]},
				YtLocation: Text{T: world.Country(v.Upload).Code},
			}},
		}
		if url, ok := s.popMapURL(v); ok {
			e.PopMap = &PopMap{URL: url}
		}
		s.entries[i] = e
	}
}

// popMapURL renders the video's popularity chart URL. Videos in the
// empty pathology have no map at all; corrupt ones render a data-less
// map (a handful of countries, all zero intensity).
func (s *Server) popMapURL(v *synth.Video) (string, bool) {
	world := s.cat.World
	switch v.PopState {
	case synth.PopStateEmpty:
		return "", false
	case synth.PopStateCorrupt:
		chart := &mapchart.Chart{
			Codes:       []string{"US", "GB", "FR"},
			Intensities: []int{0, 0, 0},
		}
		u, err := chart.BuildURL()
		if err != nil {
			panic("ytapi: corrupt chart: " + err.Error())
		}
		return u, true
	case synth.PopStateOK:
		// Real charts list only countries with data.
		var codes []string
		var vals []int
		for c, x := range v.PopVector {
			if x > 0 {
				codes = append(codes, world.Country(geo.CountryID(c)).Code)
				vals = append(vals, x)
			}
		}
		if len(codes) == 0 {
			return "", false
		}
		chart := &mapchart.Chart{Codes: codes, Intensities: vals}
		u, err := chart.BuildURL()
		if err != nil {
			// World codes are valid and values are quantized; failure is a bug.
			panic("ytapi: chart: " + err.Error())
		}
		return u, true
	default:
		return "", false
	}
}

func (s *Server) buildTops() {
	s.topByCountry = make(map[geo.CountryID][]int, s.cat.World.N())
	k := s.cfg.MostPopularSize
	for c := 0; c < s.cat.World.N(); c++ {
		id := geo.CountryID(c)
		s.topByCountry[id] = s.cat.TopInCountry(id, k)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Latency > 0 {
		time.Sleep(s.cfg.Latency)
	}
	if s.cfg.APIKey != "" && r.URL.Query().Get("key") != s.cfg.APIKey {
		s.writeError(w, http.StatusUnauthorized, "missing or invalid developer key")
		return
	}
	if !s.admit() {
		s.writeError(w, http.StatusForbidden, "too_many_recent_calls")
		return
	}
	if s.injectFault() {
		s.writeError(w, http.StatusServiceUnavailable, "transient backend error")
		return
	}
	// JSON is the only representation served; GData's Atom default is not.
	if alt := r.URL.Query().Get("alt"); alt != "" && alt != "json" {
		s.writeError(w, http.StatusBadRequest, "unsupported alt "+strconv.Quote(alt))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// admit implements the token bucket.
func (s *Server) admit() bool {
	if s.cfg.RatePerSec <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	s.tokens += now.Sub(s.lastFill).Seconds() * s.cfg.RatePerSec
	if s.tokens > s.cfg.Burst {
		s.tokens = s.cfg.Burst
	}
	s.lastFill = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

func (s *Server) injectFault() bool {
	if s.cfg.FaultRate <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults.Bernoulli(s.cfg.FaultRate)
}

// buildSearchIndex precomputes the per-tag video lists served by the
// search endpoint, ordered by total views descending (the 2011 API's
// default relevance was popularity-flavored).
func (s *Server) buildSearchIndex() {
	s.searchIndex = make(map[string][]int)
	for i := range s.cat.Videos {
		for _, name := range s.cat.Videos[i].TagNames(s.cat.Vocab) {
			s.searchIndex[name] = append(s.searchIndex[name], i)
		}
	}
	for _, vids := range s.searchIndex {
		sort.Slice(vids, func(a, b int) bool {
			va, vb := s.cat.Videos[vids[a]].TotalViews, s.cat.Videos[vids[b]].TotalViews
			if va != vb {
				return va > vb
			}
			return vids[a] < vids[b]
		})
	}
}

// handleSearch serves /feeds/api/videos?q=<term>: videos carrying the
// normalized term as a tag, by views descending, paginated.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := tags.NormalizeName(r.URL.Query().Get("q"))
	if q == "" {
		s.writeError(w, http.StatusBadRequest, "missing query term")
		return
	}
	start, maxRes, err := pagination(r, s.cfg.MaxResults)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	vids := s.searchIndex[q]
	s.writeFeed(w, page(s, vids, start, maxRes), start, maxRes, len(vids))
}

// handleStandardFeed serves
// /feeds/api/standardfeeds/{REGION}/most_popular.
func (s *Server) handleStandardFeed(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/feeds/api/standardfeeds/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 || parts[1] != "most_popular" {
		s.writeError(w, http.StatusNotFound, "unknown standard feed")
		return
	}
	region := strings.ToUpper(parts[0])
	id, ok := s.cat.World.ByCode(region)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "unknown region "+region)
		return
	}
	top := s.topByCountry[id]
	s.writeFeed(w, page(s, top, 1, len(top)), 1, len(top), len(top))
}

// handleVideos serves /feeds/api/videos/{id} and
// /feeds/api/videos/{id}/related.
func (s *Server) handleVideos(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/feeds/api/videos/")
	parts := strings.Split(rest, "/")
	v, ok := s.cat.ByID(parts[0])
	if !ok {
		s.writeError(w, http.StatusNotFound, "video not found")
		return
	}
	switch {
	case len(parts) == 1:
		s.writeJSON(w, http.StatusOK, EntryDoc{Entry: s.entries[v.Index]})
	case len(parts) == 2 && parts[1] == "related":
		s.serveRelated(w, r, v.Index)
	default:
		s.writeError(w, http.StatusNotFound, "unknown video resource")
	}
}

func (s *Server) serveRelated(w http.ResponseWriter, r *http.Request, index int) {
	if s.graph == nil {
		s.writeError(w, http.StatusNotImplemented, "related feed unavailable")
		return
	}
	rel := s.graph.Related(index)
	start, maxRes, err := pagination(r, s.cfg.MaxResults)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeFeed(w, page(s, rel, start, maxRes), start, maxRes, len(rel))
}

// page returns the entries of videos[start-1 : start-1+maxRes], clipped to
// the list (start is 1-based per GData).
func page[V int | int32](s *Server, videos []V, start, maxRes int) []Entry {
	lo := min(start-1, len(videos))
	hi := min(lo+maxRes, len(videos))
	entries := make([]Entry, hi-lo)
	for i, vi := range videos[lo:hi] {
		entries[i] = s.entries[vi]
	}
	return entries
}

func pagination(r *http.Request, cap int) (start, maxResults int, err error) {
	q := r.URL.Query()
	start = 1
	if raw := q.Get("start-index"); raw != "" {
		start, err = strconv.Atoi(raw)
		if err != nil || start < 1 {
			return 0, 0, fmt.Errorf("invalid start-index %q", raw)
		}
	}
	maxResults = 25
	if raw := q.Get("max-results"); raw != "" {
		maxResults, err = strconv.Atoi(raw)
		if err != nil || maxResults < 1 {
			return 0, 0, fmt.Errorf("invalid max-results %q", raw)
		}
	}
	if maxResults > cap {
		maxResults = cap
	}
	return start, maxResults, nil
}

func (s *Server) writeFeed(w http.ResponseWriter, entries []Entry, start, perPage, total int) {
	feed := Feed{
		Entries:      entries,
		TotalResults: IntText{T: strconv.Itoa(total)},
		StartIndex:   IntText{T: strconv.Itoa(start)},
		ItemsPerPage: IntText{T: strconv.Itoa(perPage)},
	}
	s.writeJSON(w, http.StatusOK, FeedDoc{Feed: feed})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a precomputed structure cannot fail; ignore the error the
	// same way the stdlib's own handlers do on client disconnects.
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, struct {
		Error APIError `json:"error"`
	}{Error: APIError{Code: status, Message: msg}})
}
