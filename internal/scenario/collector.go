package scenario

import (
	"math"
	"sync"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/stats"
)

// Collector aggregates one request stream's observations behind a
// mutex: counts by outcome plus a fixed-bucket latency histogram — the
// same obs.Histogram behind the daemons' /v1/stats and /metrics, so
// client-side and server-side percentiles are directly comparable — so
// a run of any length costs O(1) memory.
//
// A collector may carry a warmup cutoff: observations whose request
// *completed* before the cutoff are tallied separately (Warmup) and
// excluded from every score-bearing counter and quantile — the first
// seconds of a run measure connection setup and cold caches, and on a
// short run they visibly skew p99.
type Collector struct {
	mu     sync.Mutex
	cutoff time.Time // zero = no warmup exclusion
	hist   obs.Histogram
	lat    stats.Summary // exact mean and max

	requests int64
	items    int64 // predictions served / events accepted
	errors   int64
	shed     int64 // 503s: limiter, backpressure or health shedding
	dropped  int64 // open-loop arrivals skipped at the outstanding cap
	fallback int64 // predictions answered from the prior (known=false)
	warmup   int64 // observations excluded by the warmup cutoff
}

// newCollector returns an empty collector. A zero cutoff disables
// warmup exclusion.
func newCollector(cutoff time.Time) *Collector {
	return &Collector{cutoff: cutoff}
}

// SetCutoff (re)arms the warmup exclusion window. Call before traffic
// starts — the engine generates its catalog first, then pins the
// cutoff to the actual traffic start.
func (c *Collector) SetCutoff(t time.Time) {
	c.mu.Lock()
	c.cutoff = t
	c.mu.Unlock()
}

// Observe folds one completed request in. completedAt decides warmup
// exclusion (pass time.Now() from the request loop); items counts
// predictions served or events accepted, fallback the prior-fallback
// predictions among them. Shed wins over failed, mirroring the 503
// short-circuit in the HTTP helpers.
func (c *Collector) Observe(latency time.Duration, items, fallback int64, failed, wasShed bool, completedAt time.Time) {
	ms := float64(latency.Nanoseconds()) / 1e6
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cutoff.IsZero() && completedAt.Before(c.cutoff) {
		c.warmup++
		return
	}
	c.requests++
	if wasShed {
		c.shed++
		return
	}
	if failed {
		c.errors++
		return
	}
	c.hist.Observe(latency)
	c.lat.Add(ms)
	c.items += items
	c.fallback += fallback
}

// Drop counts one open-loop arrival that was never issued because the
// outstanding-request cap was hit — the engine's overload fuse. Dropped
// arrivals count toward the error budget (the client asked and was not
// served) but never into latency.
func (c *Collector) Drop() {
	c.mu.Lock()
	c.dropped++
	c.mu.Unlock()
}

// Latency is one stream's quantile block, milliseconds throughout.
type Latency struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Stream is one direction's (read or write) machine-readable summary,
// the block a scenario report embeds per run and per phase.
// Rates are computed over the measured (post-warmup) window, and are
// offered rates: RequestsPerSec and ItemsPerSec count every request sent,
// whatever became of it. The rate a throughput_rps SLO bounds is
// ServedPerSec.
type Stream struct {
	Requests       int64   `json:"requests"`
	Items          int64   `json:"items"`
	Errors         int64   `json:"errors"`
	Shed           int64   `json:"shed"`
	Dropped        int64   `json:"dropped,omitempty"`
	Fallbacks      int64   `json:"fallbacks,omitempty"`
	Warmup         int64   `json:"warmup_excluded,omitempty"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	ItemsPerSec    float64 `json:"items_per_sec"`
	Latency        Latency `json:"latency"`
}

// Snapshot renders the collector over the measured window (the run
// minus any warmup). Quantiles interpolate inside a histogram bucket, so
// they are capped at the exact observed maximum; an empty stream's NaN
// mean and max are flattened to 0 so the JSON stays valid.
func (c *Collector) Snapshot(measured time.Duration) Stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	secs := measured.Seconds()
	h := c.hist.Snapshot()
	maxMs := noNaN(c.lat.Max())
	quantileMs := func(q float64) float64 { return math.Min(h.Quantile(q)*1e3, maxMs) }
	s := Stream{
		Requests:  c.requests,
		Items:     c.items,
		Errors:    c.errors,
		Shed:      c.shed,
		Dropped:   c.dropped,
		Fallbacks: c.fallback,
		Warmup:    c.warmup,
		Latency: Latency{
			MeanMs: noNaN(c.lat.Mean()),
			P50Ms:  quantileMs(0.50),
			P90Ms:  quantileMs(0.90),
			P99Ms:  quantileMs(0.99),
			MaxMs:  maxMs,
		},
	}
	if secs > 0 {
		s.RequestsPerSec = float64(c.requests) / secs
		s.ItemsPerSec = float64(c.items) / secs
	}
	return s
}

func noNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// ServedPerSec is the rate of requests that were answered — neither
// failed nor shed — over the measured window: RequestsPerSec scaled by
// the answered share, so a run aimed at a dead port serves 0 however
// fast it sent.
func (s Stream) ServedPerSec() float64 {
	if s.Requests == 0 {
		return 0
	}
	return s.RequestsPerSec * float64(s.Requests-s.Errors-s.Shed) / float64(s.Requests)
}

// ErrorRate is the stream's error-budget fraction: hard failures plus
// never-issued drops over everything the client attempted. Shed (503)
// is deliberate backpressure and scored by its own budget.
func (s Stream) ErrorRate() float64 {
	attempts := s.Requests + s.Dropped
	if attempts == 0 {
		return 0
	}
	return float64(s.Errors+s.Dropped) / float64(attempts)
}

// ShedRate is the fraction of attempts answered 503.
func (s Stream) ShedRate() float64 {
	attempts := s.Requests + s.Dropped
	if attempts == 0 {
		return 0
	}
	return float64(s.Shed) / float64(attempts)
}
