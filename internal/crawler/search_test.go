package crawler

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/xrand"
	"viewstags/internal/ytapi"
)

// SearchConfig parameterizes a tag-snowball crawl: instead of walking
// the related-videos graph (the paper's method), the collector queries
// the API's search endpoint for tag terms, harvests the result videos,
// and expands the term frontier with the tags those videos carry. The
// comparison between the two collection strategies is the crawl-bias
// ablation E8 (TestE8CrawlBias): related-video snowball over-samples
// popular clusters, while tag snowball reaches niche vocabulary faster.
type SearchConfig struct {
	// SeedTerms are the initial query terms.
	SeedTerms []string
	// MaxVideos stops the crawl after this many distinct videos
	// (0 = exhaust the reachable term graph).
	MaxVideos int
	// PerTerm caps how many results are taken per term (across pages).
	PerTerm int
	// PageSize is the per-request page size.
	PageSize int
	// MaxRetriesPerTerm bounds transient-failure retries per request.
	MaxRetriesPerTerm int
}

// DefaultSearchConfig returns the standard tag-snowball parameters.
func DefaultSearchConfig(seedTerms []string) SearchConfig {
	return SearchConfig{
		SeedTerms:         seedTerms,
		PerTerm:           100,
		PageSize:          50,
		MaxRetriesPerTerm: 3,
	}
}

// SearchStats counts what the tag snowball did.
type SearchStats struct {
	TermsQueried int
	TermsFailed  int
	Fetched      int
	TermsSeen    int
}

// String renders the stats on one line.
func (s SearchStats) String() string {
	return fmt.Sprintf("termsQueried=%d termsFailed=%d fetched=%d termsSeen=%d",
		s.TermsQueried, s.TermsFailed, s.Fetched, s.TermsSeen)
}

// SearchResult is a completed tag-snowball crawl.
type SearchResult struct {
	Records []dataset.Record
	Stats   SearchStats
}

// SearchCrawl runs a breadth-first tag snowball against the API. It is
// sequential by design: the term frontier grows much more slowly than
// the video frontier of the related-graph crawl, so concurrency buys
// little and the simple loop keeps the sampling order reproducible.
func SearchCrawl(ctx context.Context, client *ytapi.Client, cfg SearchConfig) (*SearchResult, error) {
	if client == nil {
		return nil, errors.New("crawler: nil client")
	}
	if len(cfg.SeedTerms) == 0 {
		return nil, errors.New("crawler: no seed terms")
	}
	if cfg.PerTerm <= 0 {
		cfg.PerTerm = 100
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 50
	}

	res := &SearchResult{}
	seenVideos := make(map[string]bool)
	seenTerms := make(map[string]bool)
	var frontier []string
	for _, t := range cfg.SeedTerms {
		if t != "" && !seenTerms[t] {
			seenTerms[t] = true
			frontier = append(frontier, t)
		}
	}

	done := func() bool {
		return cfg.MaxVideos > 0 && len(res.Records) >= cfg.MaxVideos
	}
	for len(frontier) > 0 && !done() {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		term := frontier[0]
		frontier = frontier[1:]
		res.Stats.TermsQueried++

		entries, err := searchTermAllPages(ctx, client, term, cfg)
		if err != nil {
			res.Stats.TermsFailed++
			// A term that failed because the context ended is the crawl
			// being cancelled, not a bad term to skip: when it was the
			// last one on the frontier the loop would end as a success.
			if cerr := ctx.Err(); cerr != nil {
				return res, cerr
			}
			continue
		}
		for _, e := range entries {
			id := e.VideoIDString()
			if id == "" || seenVideos[id] {
				continue
			}
			seenVideos[id] = true
			rec := e.ToRecord()
			res.Records = append(res.Records, rec)
			for _, tag := range rec.Tags {
				if !seenTerms[tag] {
					seenTerms[tag] = true
					frontier = append(frontier, tag)
				}
			}
			if done() {
				break
			}
		}
	}
	res.Stats.Fetched = len(res.Records)
	res.Stats.TermsSeen = len(seenTerms)
	return res, nil
}

// searchTermAllPages pulls up to cfg.PerTerm results for one term, with
// bounded retries on transient failures.
func searchTermAllPages(ctx context.Context, client *ytapi.Client, term string, cfg SearchConfig) ([]ytapi.Entry, error) {
	// Retries go out at once: a zero BaseBackoff and no politeness limit.
	r := &Crawler{cfg: Config{MaxRetries: cfg.MaxRetriesPerTerm}}
	lim, jitter := newLimiter(0), xrand.NewSource(0)
	var out []ytapi.Entry
	start := 1
	for len(out) < cfg.PerTerm {
		want := cfg.PageSize
		if rest := cfg.PerTerm - len(out); rest < want {
			want = rest
		}
		var total int
		entries, err := retry(ctx, r, lim, jitter, func() ([]ytapi.Entry, error) {
			page, n, err := client.Search(ctx, term, start, want)
			total = n
			return page, err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
		start += len(entries)
		if len(entries) == 0 || start > total {
			break
		}
	}
	return out, nil
}

func TestSearchCrawlBasics(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultSearchConfig([]string{"music", "pop"})
	cfg.MaxVideos = 200
	res, err := SearchCrawl(context.Background(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 200 {
		t.Fatalf("got %d records", len(res.Records))
	}
	seen := map[string]bool{}
	for _, r := range res.Records {
		if seen[r.VideoID] {
			t.Fatalf("duplicate %s", r.VideoID)
		}
		seen[r.VideoID] = true
		if _, ok := cachedCat.ByID(r.VideoID); !ok {
			t.Fatalf("unknown video %s", r.VideoID)
		}
	}
	if res.Stats.TermsSeen <= 2 {
		t.Fatal("term frontier never expanded")
	}
}

func TestSearchCrawlExhaustsTermGraph(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultSearchConfig([]string{"music"})
	cfg.PerTerm = 1 << 30 // unbounded per-term take
	res, err := SearchCrawl(context.Background(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tag co-occurrence makes the term graph near-connected over tagged
	// videos; an unbounded crawl should reach most of the catalog (only
	// untagged videos are unreachable by construction).
	frac := float64(len(res.Records)) / float64(len(cachedCat.Videos))
	if frac < 0.9 {
		t.Fatalf("search crawl covered only %.1f%%", 100*frac)
	}
}

func TestSearchCrawlValidation(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	if _, err := SearchCrawl(context.Background(), nil, DefaultSearchConfig([]string{"x"})); err == nil {
		t.Fatal("nil client accepted")
	}
	if _, err := SearchCrawl(context.Background(), client, DefaultSearchConfig(nil)); err == nil {
		t.Fatal("no seed terms accepted")
	}
}

func TestSearchCrawlHonorsContext(t *testing.T) {
	scfg := ytapi.DefaultServerConfig()
	scfg.Latency = 5 * time.Millisecond
	client := testBackend(t, scfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := SearchCrawl(ctx, client, DefaultSearchConfig([]string{"music"})); err == nil {
		t.Fatal("cancelled search crawl returned nil error")
	}
}

// TestSearchCrawlCancelledOnLastTermIsAnError: the deadline passes inside
// the first (and only) term's first page, so the frontier is empty when
// the term fails — a cancelled crawl must still say so, not end as a
// success with one failed term.
func TestSearchCrawlCancelledOnLastTermIsAnError(t *testing.T) {
	scfg := ytapi.DefaultServerConfig()
	scfg.Latency = 50 * time.Millisecond
	client := testBackend(t, scfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := SearchCrawl(ctx, client, DefaultSearchConfig([]string{"music"}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's deadline error", err)
	}
	if res == nil || res.Stats.TermsFailed != 1 || len(res.Records) != 0 {
		t.Fatalf("result %+v, want the partial result with the one failed term", res)
	}
}

func TestSearchCrawlUnknownTermTolerated(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultSearchConfig([]string{"zz-no-such-tag", "music"})
	cfg.MaxVideos = 20
	res, err := SearchCrawl(context.Background(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 20 {
		t.Fatalf("got %d records despite healthy second term", len(res.Records))
	}
}

// TestE8CrawlBias quantifies the methodology difference the paper's §2
// choice implies: at an equal harvest budget, the related-video snowball
// (popularity-attached) lands on a more view-skewed sample than the
// tag-search snowball, while the tag snowball discovers vocabulary at
// least as fast.
func TestE8CrawlBias(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	const budget = 300

	gcfg := DefaultConfig()
	gcfg.SeedRegions = geo.YouTube2011Locales
	gcfg.MaxVideos = budget
	graphCrawler, err := New(client, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	graphRes, err := graphCrawler.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	scfg := DefaultSearchConfig([]string{"music", "pop", "funny"})
	scfg.MaxVideos = budget
	scfg.PerTerm = 20 // spread the budget over many terms
	searchRes, err := SearchCrawl(context.Background(), client, scfg)
	if err != nil {
		t.Fatal(err)
	}

	meanViews := func(recs []dataset.Record) float64 {
		var sum float64
		for _, r := range recs {
			sum += float64(r.TotalViews)
		}
		return sum / float64(len(recs))
	}
	graphMean := meanViews(graphRes.Records[:budget])
	searchMean := meanViews(searchRes.Records[:budget])
	if graphMean <= searchMean {
		t.Logf("note: graph-crawl mean views %.0f vs search %.0f — popularity bias did not dominate at this scale", graphMean, searchMean)
	}

	uniqueTags := func(recs []dataset.Record) int {
		set := map[string]bool{}
		for _, r := range recs {
			for _, tg := range r.Tags {
				set[tg] = true
			}
		}
		return len(set)
	}
	gTags := uniqueTags(graphRes.Records[:budget])
	sTags := uniqueTags(searchRes.Records[:budget])
	if gTags == 0 || sTags == 0 {
		t.Fatal("degenerate tag counts")
	}
	t.Logf("E8 at budget %d: graph crawl %d unique tags, mean views %.0f; search crawl %d unique tags, mean views %.0f",
		budget, gTags, graphMean, sTags, searchMean)
}
