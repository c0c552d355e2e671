// Package crawler implements the paper's data-collection method (§2):
// seed with the most popular videos of each of the 25 YouTube countries,
// then expand by breadth-first snowball sampling over the related-videos
// graph, scraping each visited video's metadata and popularity map.
//
// The crawler is built the way a 2011 research crawler had to be: a
// bounded worker pool over a deduplicating BFS frontier, client-side
// politeness rate limiting, exponential-backoff retries on transient
// API failures (quota 403s, 5xx), and periodic checkpoints so a
// multi-day crawl can resume after a crash.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"viewstags/internal/dataset"
	"viewstags/internal/xrand"
	"viewstags/internal/ytapi"
)

// Config parameterizes a crawl.
type Config struct {
	// SeedRegions are the country codes whose most_popular feeds seed
	// the frontier (the paper's 25 locales via geo.YouTube2011Locales).
	SeedRegions []string

	// MaxVideos stops the crawl after this many records (0 = exhaust the
	// reachable graph).
	MaxVideos int

	// Workers is the fetch concurrency. Values <= 0 mean 1.
	Workers int

	// MaxRetries bounds per-request retries on retryable failures.
	MaxRetries int
	// BaseBackoff is the first retry delay; it doubles per attempt with
	// ±50% deterministic jitter.
	BaseBackoff time.Duration

	// RelatedPageSize is the page size for related feeds (API caps at 50).
	RelatedPageSize int

	// RequestsPerSec throttles the crawler client-side (politeness);
	// 0 disables throttling.
	RequestsPerSec float64

	// CheckpointPath, when non-empty, receives a checkpoint every
	// CheckpointEvery collected records (and at the end of the crawl).
	CheckpointPath  string
	CheckpointEvery int

	// Seed drives retry jitter.
	Seed uint64
}

// DefaultConfig returns a fast, deterministic-friendly configuration.
func DefaultConfig() Config {
	return Config{
		Workers:         8,
		MaxRetries:      4,
		BaseBackoff:     10 * time.Millisecond,
		RelatedPageSize: 25,
		CheckpointEvery: 5000,
	}
}

// Stats counts what the crawl did.
type Stats struct {
	Seeded    int  // ids seeded from most_popular feeds
	Fetched   int  // records successfully collected
	Enqueued  int  // distinct ids ever admitted to the frontier
	Retries   int  // retry attempts performed
	Failed    int  // videos abandoned after MaxRetries
	MaxDepth  int  // deepest snowball wave reached (seeds are wave 0)
	Truncated bool // stopped at MaxVideos rather than frontier exhaustion
}

// String renders the stats as one line.
func (s Stats) String() string {
	return fmt.Sprintf("seeded=%d fetched=%d enqueued=%d retries=%d failed=%d maxDepth=%d truncated=%v",
		s.Seeded, s.Fetched, s.Enqueued, s.Retries, s.Failed, s.MaxDepth, s.Truncated)
}

// Result is a completed crawl.
type Result struct {
	Records []dataset.Record
	// Depths holds each record's snowball wave (BFS hop count from the
	// seed feeds), parallel to Records.
	Depths []int
	Stats  Stats
}

// Crawler drives a snowball crawl against a GData-shaped API.
type Crawler struct {
	client  *ytapi.Client
	cfg     Config
	retries atomic.Int64
}

// New builds a crawler. It returns an error for invalid configuration.
func New(client *ytapi.Client, cfg Config) (*Crawler, error) {
	if client == nil {
		return nil, errors.New("crawler: nil client")
	}
	if len(cfg.SeedRegions) == 0 {
		return nil, errors.New("crawler: no seed regions")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("crawler: negative MaxRetries %d", cfg.MaxRetries)
	}
	if cfg.RelatedPageSize <= 0 {
		cfg.RelatedPageSize = 25
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 10 * time.Millisecond
	}
	return &Crawler{client: client, cfg: cfg}, nil
}

// job is one frontier entry.
type job struct {
	id    string
	depth int
}

// fetchOut is a worker's result for one video.
type fetchOut struct {
	record  dataset.Record
	related []string
	depth   int
	err     error
}

// Run executes the crawl until the frontier is exhausted, MaxVideos is
// reached, or ctx is cancelled. A cancelled crawl returns the records
// collected so far along with ctx's error.
func (c *Crawler) Run(ctx context.Context) (*Result, error) {
	res := &Result{}
	seen := make(map[string]bool)
	var queue []job

	// Resume from checkpoint if one exists at the configured path.
	if c.cfg.CheckpointPath != "" {
		if cp, err := loadCheckpoint(c.cfg.CheckpointPath); err == nil {
			for i, id := range cp.Frontier {
				depth := 0
				if i < len(cp.FrontierDepths) {
					depth = cp.FrontierDepths[i]
				}
				queue = append(queue, job{id: id, depth: depth})
			}
			for _, id := range cp.Seen {
				seen[id] = true
			}
			res.Records = cp.Records
			res.Depths = cp.Depths
			res.Stats = cp.Stats
			// Old checkpoints may predate depth tracking.
			for len(res.Depths) < len(res.Records) {
				res.Depths = append(res.Depths, 0)
			}
		}
	}

	limiter := newLimiter(c.cfg.RequestsPerSec)

	// Seed phase (skipped when resuming with a non-empty state).
	if len(seen) == 0 {
		for _, region := range c.cfg.SeedRegions {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			jitter := xrand.NewSource(c.cfg.Seed).Fork("seed/" + region)
			entries, err := retry(ctx, c, limiter, jitter, func() ([]ytapi.Entry, error) {
				return c.client.MostPopular(ctx, region)
			})
			if err != nil {
				// A dead seed region shrinks the seed set but should not
				// kill the crawl; the paper's own crawl tolerated gaps.
				res.Stats.Failed++
				continue
			}
			for _, e := range entries {
				id := e.VideoIDString()
				if id != "" && !seen[id] {
					seen[id] = true
					queue = append(queue, job{id: id, depth: 0})
					res.Stats.Seeded++
					res.Stats.Enqueued++
				}
			}
		}
	}

	jobs := make(chan job)      // unbuffered: workers pull as they free up
	outs := make(chan fetchOut) // unbuffered: coordinator consumes immediately
	var wg sync.WaitGroup
	workerCtx, cancelWorkers := context.WithCancel(ctx)
	defer cancelWorkers()

	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		jitter := xrand.NewSource(c.cfg.Seed).Fork(fmt.Sprintf("worker/%d", w))
		go func() {
			defer wg.Done()
			for j := range jobs {
				out := c.fetchOne(workerCtx, limiter, jitter, j)
				select {
				case outs <- out:
				case <-workerCtx.Done():
					return
				}
			}
		}()
	}

	// Coordinator loop: single goroutine owns queue/seen/records.
	outstanding := 0
	sinceCheckpoint := 0
	done := func() bool {
		return (c.cfg.MaxVideos > 0 && len(res.Records) >= c.cfg.MaxVideos)
	}
	var runErr error
loop:
	for (len(queue) > 0 || outstanding > 0) && !done() {
		var sendCh chan job
		var next job
		if len(queue) > 0 {
			sendCh = jobs
			next = queue[0]
		}
		select {
		case sendCh <- next:
			queue = queue[1:]
			outstanding++
		case out := <-outs:
			outstanding--
			if out.err != nil {
				res.Stats.Failed++
			} else {
				res.Records = append(res.Records, out.record)
				res.Depths = append(res.Depths, out.depth)
				if out.depth > res.Stats.MaxDepth {
					res.Stats.MaxDepth = out.depth
				}
				sinceCheckpoint++
				for _, id := range out.related {
					if !seen[id] {
						seen[id] = true
						queue = append(queue, job{id: id, depth: out.depth + 1})
						res.Stats.Enqueued++
					}
				}
			}
			if c.cfg.CheckpointPath != "" && c.cfg.CheckpointEvery > 0 && sinceCheckpoint >= c.cfg.CheckpointEvery {
				sinceCheckpoint = 0
				c.checkpoint(res, seen, queue)
			}
		case <-ctx.Done():
			runErr = ctx.Err()
			break loop
		}
	}
	if done() {
		res.Stats.Truncated = true
	}
	close(jobs)
	cancelWorkers()
	// Drain any in-flight results so workers can exit.
	go func() {
		wg.Wait()
		close(outs)
	}()
	for out := range outs {
		if runErr == nil && out.err == nil && !done() {
			res.Records = append(res.Records, out.record)
			res.Depths = append(res.Depths, out.depth)
			if out.depth > res.Stats.MaxDepth {
				res.Stats.MaxDepth = out.depth
			}
		}
	}
	res.Stats.Fetched = len(res.Records)
	res.Stats.Retries = int(c.retries.Load())

	if c.cfg.CheckpointPath != "" {
		c.checkpoint(res, seen, queue)
	}
	return res, runErr
}

// fetchOne retrieves a video entry and its full related list, with
// retries on retryable failures.
func (c *Crawler) fetchOne(ctx context.Context, lim *limiter, jitter *xrand.Source, j job) fetchOut {
	id := j.id
	entry, err := retry(ctx, c, lim, jitter, func() (*ytapi.Entry, error) {
		return c.client.Video(ctx, id)
	})
	if err != nil {
		return fetchOut{err: err, depth: j.depth}
	}
	rec := entry.ToRecord()

	var related []string
	start := 1
	for {
		var total int
		entries, err := retry(ctx, c, lim, jitter, func() ([]ytapi.Entry, error) {
			page, n, err := c.client.Related(ctx, id, start, c.cfg.RelatedPageSize)
			total = n
			return page, err
		})
		if err != nil {
			// Partial related lists are acceptable: the frontier loses
			// some fan-out but the record itself is sound.
			break
		}
		for _, e := range entries {
			if rid := e.VideoIDString(); rid != "" {
				related = append(related, rid)
			}
		}
		start += len(entries)
		if len(entries) == 0 || start > total {
			break
		}
	}
	return fetchOut{record: rec, related: related, depth: j.depth}
}

// retry runs fn until it succeeds, fails with a non-retryable error, or
// spends MaxRetries retries. Every attempt first waits once on lim; every
// retry is counted in c.retries and backs off with c.backoff before it.
func retry[T any](ctx context.Context, c *Crawler, lim *limiter, jitter *xrand.Source, fn func() (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if attempt > 0 {
			c.retries.Add(1)
			if err := sleepCtx(ctx, c.backoff(jitter, attempt)); err != nil {
				return zero, err
			}
		}
		lim.wait(ctx)
		v, err := fn()
		if err == nil {
			return v, nil
		}
		lastErr = err
		if !retryable(err) {
			return zero, err
		}
	}
	return zero, fmt.Errorf("crawler: retries exhausted: %w", lastErr)
}

// backoff returns the delay before the given (1-based) retry attempt:
// BaseBackoff · 2^(attempt−1), jittered ±50%.
func (c *Crawler) backoff(jitter *xrand.Source, attempt int) time.Duration {
	d := c.cfg.BaseBackoff << (attempt - 1)
	f := 0.5 + jitter.Float64() // in [0.5, 1.5)
	return time.Duration(float64(d) * f)
}

// retryable classifies an error for the retry loop.
func retryable(err error) bool {
	var se *ytapi.ErrStatus
	if errors.As(err, &se) {
		return se.Retryable()
	}
	// Network-level errors (connection refused, resets) are retryable;
	// context cancellation is not.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
