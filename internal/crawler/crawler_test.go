package crawler

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/relgraph"
	"viewstags/internal/synth"
	"viewstags/internal/xrand"
	"viewstags/internal/ytapi"
)

var (
	cachedCat   *synth.Catalog
	cachedGraph *relgraph.Graph
)

func testBackend(t *testing.T, cfg ytapi.ServerConfig) *ytapi.Client {
	t.Helper()
	if cachedCat == nil {
		cat, err := synth.Generate(synth.DefaultConfig(1200))
		if err != nil {
			t.Fatal(err)
		}
		g, err := relgraph.Build(cat, xrand.NewSource(11), relgraph.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedCat, cachedGraph = cat, g
	}
	srv, err := ytapi.NewServer(cachedCat, cachedGraph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ytapi.NewClient(ts.URL, cfg.APIKey, ts.Client())
}

func TestFullCrawlCoversCatalog(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultConfig()
	cfg.SeedRegions = geo.YouTube2011Locales
	c, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(res.Records)) / float64(len(cachedCat.Videos))
	if frac < 0.95 {
		t.Fatalf("crawl covered %.1f%% of the catalog", 100*frac)
	}
	if res.Stats.Fetched != len(res.Records) {
		t.Fatal("stats.Fetched mismatch")
	}
	if res.Stats.Seeded == 0 || res.Stats.Seeded > 250 {
		t.Fatalf("seeded = %d, want (0, 250]", res.Stats.Seeded)
	}
	// No duplicate records.
	seen := map[string]bool{}
	for _, r := range res.Records {
		if seen[r.VideoID] {
			t.Fatalf("duplicate record %s", r.VideoID)
		}
		seen[r.VideoID] = true
	}
}

func TestCrawlRecordsMatchCatalog(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultConfig()
	cfg.SeedRegions = []string{"US", "BR"}
	cfg.MaxVideos = 50
	c, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 50 {
		t.Fatalf("got %d records", len(res.Records))
	}
	if !res.Stats.Truncated {
		t.Fatal("MaxVideos crawl should report truncation")
	}
	for _, r := range res.Records {
		v, ok := cachedCat.ByID(r.VideoID)
		if !ok {
			t.Fatalf("crawled unknown video %s", r.VideoID)
		}
		if r.TotalViews != v.TotalViews {
			t.Fatalf("video %s views %d, want %d", r.VideoID, r.TotalViews, v.TotalViews)
		}
	}
}

func TestCrawlSurvivesFaults(t *testing.T) {
	scfg := ytapi.DefaultServerConfig()
	scfg.FaultRate = 0.2
	scfg.FaultSeed = 77
	client := testBackend(t, scfg)
	cfg := DefaultConfig()
	cfg.SeedRegions = []string{"US", "GB", "BR", "JP"}
	cfg.MaxVideos = 120
	cfg.BaseBackoff = time.Millisecond
	c, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 120 {
		t.Fatalf("fault-injected crawl got only %d records", len(res.Records))
	}
	if res.Stats.Retries == 0 {
		// Retries counter is attributed in fetch paths; with 20% faults
		// some retries must have occurred for the crawl to finish.
		t.Log("note: retries counter is zero; faults may all have hit first-attempt successes")
	}
}

func TestCrawlHonorsContextCancel(t *testing.T) {
	scfg := ytapi.DefaultServerConfig()
	scfg.Latency = 5 * time.Millisecond
	client := testBackend(t, scfg)
	cfg := DefaultConfig()
	cfg.SeedRegions = []string{"US"}
	c, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Run(ctx)
	if err == nil {
		t.Fatal("cancelled crawl returned nil error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation took too long")
	}
}

func TestCheckpointResume(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "crawl.checkpoint")

	// Phase 1: partial crawl.
	cfg := DefaultConfig()
	cfg.SeedRegions = geo.YouTube2011Locales
	cfg.MaxVideos = 100
	cfg.CheckpointPath = cpPath
	cfg.CheckpointEvery = 20
	c1, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := c1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Records) < 100 {
		t.Fatalf("phase 1 got %d records", len(res1.Records))
	}

	// Phase 2: resume to completion.
	cfg.MaxVideos = 0
	c2, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) <= len(res1.Records) {
		t.Fatalf("resume did not extend the crawl: %d -> %d", len(res1.Records), len(res2.Records))
	}
	// Resumed crawl must not duplicate phase-1 records.
	seen := map[string]int{}
	for _, r := range res2.Records {
		seen[r.VideoID]++
		if seen[r.VideoID] > 1 {
			t.Fatalf("resume duplicated %s", r.VideoID)
		}
	}
	frac := float64(len(res2.Records)) / float64(len(cachedCat.Videos))
	if frac < 0.95 {
		t.Fatalf("resumed crawl covered %.1f%%", 100*frac)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	cp := &Checkpoint{
		Records:  []dataset.Record{{VideoID: "a", TotalViews: 1, Tags: []string{"x"}}},
		Seen:     []string{"a", "b"},
		Frontier: []string{"b"},
		Stats:    Stats{Seeded: 1, Enqueued: 2},
	}
	if err := saveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 || got.Records[0].VideoID != "a" || len(got.Seen) != 2 || got.Stats.Seeded != 1 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestLoadCheckpointMissing(t *testing.T) {
	if _, err := loadCheckpoint(filepath.Join(t.TempDir(), "none")); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Fatal("nil client accepted")
	}
	cfg := DefaultConfig()
	if _, err := New(client, cfg); err == nil {
		t.Fatal("empty seed regions accepted")
	}
	cfg.SeedRegions = []string{"US"}
	cfg.MaxRetries = -1
	if _, err := New(client, cfg); err == nil {
		t.Fatal("negative retries accepted")
	}
}

func TestUnknownSeedRegionTolerated(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultConfig()
	cfg.SeedRegions = []string{"QQ", "US"} // QQ is 400: not retryable, skipped
	cfg.MaxVideos = 30
	c, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 30 {
		t.Fatalf("crawl got %d records despite healthy second seed", len(res.Records))
	}
	if res.Stats.Failed == 0 {
		t.Fatal("bad seed region should count as a failure")
	}
}

func TestPolitenessThrottle(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultConfig()
	cfg.SeedRegions = []string{"US"}
	cfg.MaxVideos = 3
	cfg.Workers = 2
	cfg.RequestsPerSec = 50
	c, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 3 videos ≈ >= 4 requests (1 seed + 3 entries + related pages) at
	// 50 rps ⇒ at least ~60ms. Loose bound to avoid flakiness.
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("throttled crawl finished implausibly fast")
	}
}

func TestDepthTracking(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultConfig()
	cfg.SeedRegions = []string{"US"}
	c, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Depths) != len(res.Records) {
		t.Fatalf("depths/records length mismatch: %d vs %d", len(res.Depths), len(res.Records))
	}
	// Seeds are wave 0; the snowball must have expanded beyond them.
	if res.Stats.MaxDepth < 1 {
		t.Fatalf("max depth = %d; snowball never left the seed wave", res.Stats.MaxDepth)
	}
	zeros := 0
	for _, d := range res.Depths {
		if d < 0 || d > res.Stats.MaxDepth {
			t.Fatalf("depth %d out of range [0, %d]", d, res.Stats.MaxDepth)
		}
		if d == 0 {
			zeros++
		}
	}
	// A single 10-video seed feed: at most 10 wave-0 records.
	if zeros == 0 || zeros > 10 {
		t.Fatalf("wave-0 record count %d, want (0, 10]", zeros)
	}
}

func TestLimiterEnforcesRate(t *testing.T) {
	lim := newLimiter(100) // 100 rps -> 10ms gaps after the initial token
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 5; i++ {
		lim.wait(ctx)
	}
	// 5 acquisitions at 100 rps: first is free (burst 1), four wait
	// ~10ms each => >= ~35ms allowing scheduler slack.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("5 tokens at 100rps took only %v", elapsed)
	}
}

func TestLimiterDisabled(t *testing.T) {
	lim := newLimiter(0)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		lim.wait(context.Background())
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("disabled limiter throttled")
	}
}

func TestLimiterRespectsCancelledContext(t *testing.T) {
	lim := newLimiter(0.1)         // one token per 10s
	lim.wait(context.Background()) // consume the burst token
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	lim.wait(ctx) // must return promptly on ctx expiry, not wait 10s
	if time.Since(start) > time.Second {
		t.Fatal("limiter ignored context cancellation")
	}
}

// TestRetry pins the one retry loop every crawl request goes through.
func TestRetry(t *testing.T) {
	transient := &ytapi.ErrStatus{Code: http.StatusServiceUnavailable, Message: "transient backend error"}
	quota := &ytapi.ErrStatus{Code: http.StatusForbidden, Message: "too_many_recent_calls"}
	notFound := &ytapi.ErrStatus{Code: http.StatusNotFound, Message: "video not found"}
	const rate = 5.0 // limiter tokens/s: a 200ms gap between attempts
	gap := time.Duration(float64(time.Second) / rate)
	cases := []struct {
		name        string
		errs        []error // the successive calls' errors; later calls succeed
		rate        float64
		cancelled   bool
		wantCalls   int
		wantRetries int64
		wantErr     error // errors.Is target; nil wants success
	}{
		{name: "success after k retryable failures", errs: []error{transient, quota}, wantCalls: 3, wantRetries: 2},
		{name: "non-retryable error", errs: []error{notFound}, wantCalls: 1, wantErr: notFound},
		{name: "exhaustion wraps the last error", errs: []error{transient, transient, quota, transient}, wantCalls: 3, wantRetries: 2, wantErr: quota},
		{name: "cancelled context", cancelled: true, wantErr: context.Canceled},
		{name: "one limiter wait per attempt", errs: []error{transient, transient}, rate: rate, wantCalls: 3, wantRetries: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Crawler{cfg: Config{MaxRetries: 2, BaseBackoff: time.Nanosecond}}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelled {
				cancel()
			}
			var calls []time.Time
			start := time.Now()
			got, err := retry(ctx, c, newLimiter(tc.rate), xrand.NewSource(1), func() (int, error) {
				calls = append(calls, time.Now())
				if n := len(calls); n <= len(tc.errs) {
					return 0, tc.errs[n-1]
				}
				return 7, nil
			})
			if len(calls) != tc.wantCalls || c.retries.Load() != tc.wantRetries {
				t.Fatalf("%d calls, %d retries; want %d, %d", len(calls), c.retries.Load(), tc.wantCalls, tc.wantRetries)
			}
			if tc.wantErr == nil {
				if err != nil || got != 7 {
					t.Fatalf("got %d, %v; want 7, nil", got, err)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.rate > 0 {
				// A second wait before any attempt would add a whole gap.
				prev := start
				for i, at := range calls {
					lo := gap * 9 / 10
					if i == 0 {
						lo = 0
					}
					if d := at.Sub(prev); d < lo || d >= lo+gap {
						t.Fatalf("attempt %d began %v after the last; want [%v, %v)", i+1, d, lo, lo+gap)
					}
					prev = at
				}
			}
		})
	}
}
