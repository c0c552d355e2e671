package crawler

import (
	"context"
	"errors"
	"fmt"

	"viewstags/internal/dataset"
	"viewstags/internal/ytapi"
)

// SearchConfig parameterizes a tag-snowball crawl: instead of walking
// the related-videos graph (the paper's method), the collector queries
// the API's search endpoint for tag terms, harvests the result videos,
// and expands the term frontier with the tags those videos carry. The
// comparison between the two collection strategies is the crawl-bias
// ablation E8: related-video snowball over-samples popular clusters,
// while tag snowball reaches niche vocabulary faster.
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
	var out []ytapi.Entry
	start := 1
	for len(out) < cfg.PerTerm {
		want := cfg.PageSize
		if rest := cfg.PerTerm - len(out); rest < want {
			want = rest
		}
		entries, total, err := searchWithRetry(ctx, client, term, start, want, cfg.MaxRetriesPerTerm)
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

func searchWithRetry(ctx context.Context, client *ytapi.Client, term string, start, max, retries int) ([]ytapi.Entry, int, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		entries, total, err := client.Search(ctx, term, start, max)
		if err == nil {
			return entries, total, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, 0, err
		}
	}
	return nil, 0, fmt.Errorf("crawler: search %q: retries exhausted: %w", term, lastErr)
}
