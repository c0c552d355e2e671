// Package scenario is the declarative chaos/SLO harness and the
// repository's one open-loop load driver: it boots real serve/gateway
// binaries — or attaches to a daemon that is already running
// (RunOptions.Target) — drives open-loop traffic phases (diurnal
// regional waves, flash-crowd viral tags, ingest bursts, catalog
// churn), injects chaos into what it booted (SIGKILL a shard, slow-shard
// brownout via a delaying proxy, gateway restart) and scores the run
// against declared SLOs — latency quantiles from the histogram the
// daemons report theirs from, error/shed budgets, epoch staleness and
// recovery time from mid-run gateway scrapes. Runs emit a
// machine-readable report (schema viewstags-scenario/v1) that the
// comparator diffs against a checked-in baseline, so the perf
// trajectory lives in-repo. Closed-loop capacity ("how much can it
// take") is bench/'s question, not this package's.
//
// cmd/scenario is the CLI; the package is exported so the root e2e
// test drives the same engine CI does.
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Duration is time.Duration with human-readable JSON: it marshals as a
// ParseDuration string ("250ms") and unmarshals from either that or a
// bare number of seconds.
type Duration time.Duration

// D converts for arithmetic.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders the ParseDuration spelling.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders "250ms"-style strings.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms" strings or numeric seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"250ms\" or a number of seconds, got %s", b)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Phase is one open-loop traffic segment. Arrivals are paced at Rate
// requests/second regardless of response latency (the open-loop
// discipline: a slow server faces a growing backlog, not a politely
// waiting client), bounded by the engine's outstanding-request cap.
type Phase struct {
	Name     string   `json:"name"`
	Duration Duration `json:"duration"`
	// Rate is offered load in requests/second across both streams.
	Rate float64 `json:"rate"`
	// Batch is items per request (predict items or ingest events).
	Batch int `json:"batch,omitempty"`
	// IngestFrac is the write fraction of arrivals (0 = read-only).
	IngestFrac float64 `json:"ingest_frac,omitempty"`
	// Zipf is the base popularity exponent for video draws (default 1.1).
	Zipf float64 `json:"zipf,omitempty"`
	// HotTags > 0 turns the phase into a flash crowd: a hot set of that
	// many videos absorbs HotFrac of all draws — the viral-tag spike the
	// paper's geo-prediction serving tier exists to survive.
	HotTags int     `json:"hot_tags,omitempty"`
	HotFrac float64 `json:"hot_frac,omitempty"`
	// Region biases ingest viewer countries toward one code ("US",
	// "BR", ...) — half the events come from Region, the rest stay
	// traffic-weighted. Empty keeps the global traffic prior. This is
	// the diurnal knob: consecutive phases with different regions model
	// the sun sweeping across timezones.
	Region string `json:"region,omitempty"`
	// ChurnFrac is the fraction of ingest events that mint a
	// previously-unseen catalog video (upload announcements): catalog
	// churn keeps the dedup and upload-accounting paths hot.
	ChurnFrac float64 `json:"churn_frac,omitempty"`
}

// Chaos actions.
const (
	ActionKillShard      = "kill-shard"      // SIGKILL the shard daemon
	ActionRestartShard   = "restart-shard"   // start it again, same -data-dir
	ActionRestartGateway = "restart-gateway" // SIGTERM + re-exec the gateway
	ActionSlowShard      = "slow-shard"      // brownout: inject Delay per call
	ActionUnslowShard    = "unslow-shard"    // lift the brownout
	// ActionGrowCluster boots one additional shard daemon over the same
	// dataset, waits for it to build, and POSTs /v1/reshard so the
	// gateway moves the tier onto the grown target list live — the
	// scripted version of the capacity-add runbook.
	ActionGrowCluster = "grow-cluster"
)

// ChaosEvent is one scripted fault, fired At after traffic starts.
type ChaosEvent struct {
	At     Duration `json:"at"`
	Action string   `json:"action"`
	Shard  int      `json:"shard,omitempty"`
	Delay  Duration `json:"delay,omitempty"` // slow-shard only
}

// SLO metric names. Latency/error/shed/throughput metrics address one
// stream ("read" or "write"); staleness and recovery address the
// cluster. throughput_rps is the served rate (Stream.ServedPerSec), not
// the offered requests_per_sec the report also carries.
const (
	MetricP50          = "p50_ms"
	MetricP90          = "p90_ms"
	MetricP99          = "p99_ms"
	MetricErrorRate    = "error_rate"
	MetricShedRate     = "shed_rate"
	MetricThroughput   = "throughput_rps"
	MetricStaleness    = "staleness_epochs"
	MetricRecoverySecs = "recovery_seconds"
)

// SLO is one declared objective: a bound on a metric of a stream (or of
// the cluster). Max and Min are pointers so "no bound" is distinguishable
// from "bound at zero".
type SLO struct {
	Name   string   `json:"name"`
	Stream string   `json:"stream"` // "read", "write" or "cluster"
	Metric string   `json:"metric"`
	Max    *float64 `json:"max,omitempty"`
	Min    *float64 `json:"min,omitempty"`
}

// Spec is a whole scenario: topology, warmup, phases, chaos timeline
// and the SLOs the run is scored against.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Topology. Shards is the serve-daemon count behind one gateway.
	Shards int    `json:"shards"`
	Videos int    `json:"videos"`
	Seed   uint64 `json:"seed"`
	// Replicas is the ring's replica factor (copies of each tag's
	// slice): every daemon and the gateway get -replicas. 0 or 1 means
	// unreplicated; at >= 2 reads fail over and a killed shard costs
	// availability of nothing that another replica still covers.
	Replicas int `json:"replicas,omitempty"`
	// FoldInterval is each shard's -ingest-interval; short intervals
	// make epoch staleness observable on short runs.
	FoldInterval Duration `json:"fold_interval,omitempty"`
	// HealthInterval is the gateway's shard poll cadence; chaos
	// scenarios want it short so detection fits the run.
	HealthInterval Duration `json:"health_interval,omitempty"`
	// Durable gives every shard a -data-dir (WAL + checkpoints), the
	// precondition for kill-and-recover chaos to restore state.
	Durable bool `json:"durable,omitempty"`
	// Warmup is excluded from all scoring: observations completing
	// before start+Warmup land in the warmup tally, not the latency
	// histogram.
	Warmup Duration `json:"warmup,omitempty"`
	// MaxOutstanding caps in-flight requests; open-loop arrivals beyond
	// it are dropped (and charged to the error budget). Default 256.
	MaxOutstanding int `json:"max_outstanding,omitempty"`

	Phases []Phase      `json:"phases"`
	Chaos  []ChaosEvent `json:"chaos,omitempty"`
	SLOs   []SLO        `json:"slos"`
}

// Duration is the scripted traffic length: warmup plus every phase.
func (s *Spec) Duration() time.Duration {
	total := s.Warmup.D()
	for i := range s.Phases {
		total += s.Phases[i].Duration.D()
	}
	return total
}

// chaosActions is what each chaos action does to the engine's cluster:
// Validate admits the actions it names, and Run fires them through it.
var chaosActions = map[string]func(c *Cluster, ev ChaosEvent) error{
	ActionKillShard:      func(c *Cluster, ev ChaosEvent) error { return c.KillShard(ev.Shard) },
	ActionRestartShard:   func(c *Cluster, ev ChaosEvent) error { return c.RestartShard(ev.Shard) },
	ActionRestartGateway: func(c *Cluster, _ ChaosEvent) error { return c.RestartGateway() },
	ActionSlowShard:      func(c *Cluster, ev ChaosEvent) error { c.SetShardDelay(ev.Shard, ev.Delay.D()); return nil },
	ActionUnslowShard:    func(c *Cluster, ev ChaosEvent) error { c.SetShardDelay(ev.Shard, 0); return nil },
	ActionGrowCluster:    func(c *Cluster, _ ChaosEvent) error { return c.GrowCluster() },
}

// validMetrics maps each metric to whether it is stream-scoped (true)
// or cluster-scoped (false).
var validMetrics = map[string]bool{
	MetricP50:          true,
	MetricP90:          true,
	MetricP99:          true,
	MetricErrorRate:    true,
	MetricShedRate:     true,
	MetricThroughput:   true,
	MetricStaleness:    false,
	MetricRecoverySecs: false,
}

// Validate rejects a spec the engine cannot run truthfully — the same
// checks whether the spec came from JSON or the builtin registry.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if s.Shards < 1 {
		return fmt.Errorf("scenario %s: shards must be >= 1", s.Name)
	}
	if s.Videos < 1 {
		return fmt.Errorf("scenario %s: videos must be >= 1", s.Name)
	}
	if s.Replicas < 0 {
		return fmt.Errorf("scenario %s: replicas must be >= 0", s.Name)
	}
	if s.Replicas > s.Shards {
		return fmt.Errorf("scenario %s: %d shards cannot hold %d replicas", s.Name, s.Shards, s.Replicas)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: at least one phase is required", s.Name)
	}
	for what, d := range map[string]Duration{
		"warmup": s.Warmup, "fold_interval": s.FoldInterval, "health_interval": s.HealthInterval,
	} {
		if d < 0 {
			return fmt.Errorf("scenario %s: %s must be >= 0", s.Name, what)
		}
	}
	if s.MaxOutstanding < 0 {
		return fmt.Errorf("scenario %s: max_outstanding must be >= 0", s.Name)
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		if p.Name == "" {
			return fmt.Errorf("scenario %s: phase %d has no name", s.Name, i)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("scenario %s: phase %q duration must be > 0", s.Name, p.Name)
		}
		if p.Rate <= 0 {
			return fmt.Errorf("scenario %s: phase %q rate must be > 0", s.Name, p.Name)
		}
		if p.Batch < 0 {
			return fmt.Errorf("scenario %s: phase %q batch must be >= 0", s.Name, p.Name)
		}
		for what, frac := range map[string]float64{
			"ingest_frac": p.IngestFrac, "hot_frac": p.HotFrac, "churn_frac": p.ChurnFrac,
		} {
			if frac < 0 || frac > 1 {
				return fmt.Errorf("scenario %s: phase %q %s must be in [0, 1]", s.Name, p.Name, what)
			}
		}
		if p.HotTags < 0 {
			return fmt.Errorf("scenario %s: phase %q hot_tags must be >= 0", s.Name, p.Name)
		}
	}
	traffic := s.Duration()
	for i := range s.Chaos {
		c := &s.Chaos[i]
		if chaosActions[c.Action] == nil {
			names := make([]string, 0, len(chaosActions))
			for name := range chaosActions {
				names = append(names, name)
			}
			sort.Strings(names)
			return fmt.Errorf("scenario %s: chaos %d: unknown action %q (want %s)",
				s.Name, i, c.Action, strings.Join(names, ", "))
		}
		if c.At < 0 || c.At.D() > traffic {
			return fmt.Errorf("scenario %s: chaos %d (%s) fires at %s, outside the %s run",
				s.Name, i, c.Action, c.At, traffic)
		}
		switch c.Action {
		case ActionKillShard, ActionRestartShard, ActionSlowShard, ActionUnslowShard:
			if c.Shard < 0 || c.Shard >= s.Shards {
				return fmt.Errorf("scenario %s: chaos %d (%s) names shard %d of %d",
					s.Name, i, c.Action, c.Shard, s.Shards)
			}
		}
		if c.Action == ActionSlowShard && c.Delay <= 0 {
			return fmt.Errorf("scenario %s: chaos %d: slow-shard needs delay > 0", s.Name, i)
		}
		if (c.Action == ActionKillShard || c.Action == ActionRestartShard) && !s.Durable {
			return fmt.Errorf("scenario %s: chaos %d: %s requires durable: true (recovery needs a -data-dir)",
				s.Name, i, c.Action)
		}
	}
	if len(s.SLOs) == 0 {
		return fmt.Errorf("scenario %s: at least one SLO is required — an unscored chaos run proves nothing", s.Name)
	}
	for i := range s.SLOs {
		o := &s.SLOs[i]
		if o.Name == "" {
			return fmt.Errorf("scenario %s: SLO %d has no name", s.Name, i)
		}
		perStream, ok := validMetrics[o.Metric]
		if !ok {
			return fmt.Errorf("scenario %s: SLO %q: unknown metric %q", s.Name, o.Name, o.Metric)
		}
		switch o.Stream {
		case "read", "write":
			if !perStream {
				return fmt.Errorf("scenario %s: SLO %q: metric %s is cluster-scoped, not per-stream", s.Name, o.Name, o.Metric)
			}
		case "cluster":
			if perStream {
				return fmt.Errorf("scenario %s: SLO %q: metric %s needs stream read or write", s.Name, o.Name, o.Metric)
			}
		default:
			return fmt.Errorf("scenario %s: SLO %q: stream must be read, write or cluster, got %q", s.Name, o.Name, o.Stream)
		}
		if o.Max == nil && o.Min == nil {
			return fmt.Errorf("scenario %s: SLO %q declares no bound", s.Name, o.Name)
		}
	}
	return nil
}

// Load parses and validates a JSON spec.
func Load(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
