package scenario

import (
	"fmt"
	"sort"
	"time"
)

// f builds the *float64 SLO bounds.
func f(v float64) *float64 { return &v }

// d shortens Duration literals.
func d(v time.Duration) Duration { return Duration(v) }

// builtins is the named-scenario registry. Each entry is a constructor
// so callers always get a fresh, mutable Spec.
//
// Bounds philosophy: chaos-smoke runs in CI under -race on shared
// runners, so its SLOs are deliberately loose — they catch "the
// cluster melted" (requests erroring, recovery never happening,
// staleness running away), not microsecond regressions; the comparator
// against the checked-in baseline is the fine-grained trend gate.
var builtins = map[string]func() *Spec{
	"chaos-smoke": func() *Spec {
		return &Spec{
			Name:           "chaos-smoke",
			Description:    "3-shard flash crowd; SIGKILL shard 1 mid-spike, restart it, require recovery within budget",
			Shards:         3,
			Videos:         4000,
			Seed:           20110301,
			FoldInterval:   d(300 * time.Millisecond),
			HealthInterval: d(250 * time.Millisecond),
			Durable:        true,
			Warmup:         d(2 * time.Second),
			MaxOutstanding: 256,
			Phases: []Phase{{
				Name:       "flash-crowd",
				Duration:   d(8 * time.Second),
				Rate:       120,
				Batch:      1,
				IngestFrac: 0.2,
				Zipf:       1.1,
				HotTags:    8,
				HotFrac:    0.6,
				ChurnFrac:  0.05,
			}},
			Chaos: []ChaosEvent{
				{At: d(3 * time.Second), Action: ActionKillShard, Shard: 1},
				{At: d(5500 * time.Millisecond), Action: ActionRestartShard, Shard: 1},
			},
			SLOs: []SLO{
				{Name: "read-p99", Stream: "read", Metric: MetricP99, Max: f(2000)},
				{Name: "read-errors", Stream: "read", Metric: MetricErrorRate, Max: f(0.05)},
				{Name: "read-shed", Stream: "read", Metric: MetricShedRate, Max: f(0.65)},
				{Name: "read-served", Stream: "read", Metric: MetricThroughput, Min: f(20)},
				{Name: "write-errors", Stream: "write", Metric: MetricErrorRate, Max: f(0.30)},
				{Name: "staleness", Stream: "cluster", Metric: MetricStaleness, Max: f(200)},
				{Name: "recovery", Stream: "cluster", Metric: MetricRecoverySecs, Max: f(30)},
			},
		}
	},
	"flash-crowd-kill": func() *Spec {
		return &Spec{
			Name:           "flash-crowd-kill",
			Description:    "longer kill-and-recover under a viral-tag spike: baseline load, spike, kill, recover, cool down",
			Shards:         3,
			Videos:         8000,
			Seed:           20110301,
			FoldInterval:   d(300 * time.Millisecond),
			HealthInterval: d(250 * time.Millisecond),
			Durable:        true,
			Warmup:         d(3 * time.Second),
			MaxOutstanding: 512,
			Phases: []Phase{
				{Name: "baseline", Duration: d(5 * time.Second), Rate: 100, Batch: 1, IngestFrac: 0.2, Zipf: 1.1},
				{Name: "spike", Duration: d(10 * time.Second), Rate: 300, Batch: 1, IngestFrac: 0.15, Zipf: 1.1, HotTags: 4, HotFrac: 0.8, ChurnFrac: 0.05},
				{Name: "cooldown", Duration: d(5 * time.Second), Rate: 100, Batch: 1, IngestFrac: 0.2, Zipf: 1.1},
			},
			Chaos: []ChaosEvent{
				{At: d(9 * time.Second), Action: ActionKillShard, Shard: 2},
				{At: d(13 * time.Second), Action: ActionRestartShard, Shard: 2},
			},
			SLOs: []SLO{
				{Name: "read-p99", Stream: "read", Metric: MetricP99, Max: f(1500)},
				{Name: "read-errors", Stream: "read", Metric: MetricErrorRate, Max: f(0.05)},
				{Name: "read-shed", Stream: "read", Metric: MetricShedRate, Max: f(0.5)},
				{Name: "write-errors", Stream: "write", Metric: MetricErrorRate, Max: f(0.25)},
				{Name: "staleness", Stream: "cluster", Metric: MetricStaleness, Max: f(200)},
				{Name: "recovery", Stream: "cluster", Metric: MetricRecoverySecs, Max: f(20)},
			},
		}
	},
	"diurnal": func() *Spec {
		return &Spec{
			Name:           "diurnal",
			Description:    "regional viewing waves sweeping across timezones, no chaos — the steady-state geo workload",
			Shards:         3,
			Videos:         8000,
			Seed:           20110301,
			FoldInterval:   d(300 * time.Millisecond),
			Warmup:         d(2 * time.Second),
			MaxOutstanding: 256,
			Phases: []Phase{
				{Name: "asia-evening", Duration: d(6 * time.Second), Rate: 150, Batch: 1, IngestFrac: 0.3, Zipf: 1.1, Region: "JP"},
				{Name: "europe-evening", Duration: d(6 * time.Second), Rate: 200, Batch: 1, IngestFrac: 0.3, Zipf: 1.1, Region: "DE"},
				{Name: "americas-evening", Duration: d(6 * time.Second), Rate: 250, Batch: 1, IngestFrac: 0.3, Zipf: 1.1, Region: "US"},
			},
			SLOs: []SLO{
				{Name: "read-p99", Stream: "read", Metric: MetricP99, Max: f(500)},
				{Name: "read-errors", Stream: "read", Metric: MetricErrorRate, Max: f(0.01)},
				{Name: "read-shed", Stream: "read", Metric: MetricShedRate, Max: f(0.01)},
				{Name: "write-p99", Stream: "write", Metric: MetricP99, Max: f(500)},
				{Name: "write-errors", Stream: "write", Metric: MetricErrorRate, Max: f(0.01)},
				{Name: "staleness", Stream: "cluster", Metric: MetricStaleness, Max: f(10)},
			},
		}
	},
	"brownout": func() *Spec {
		return &Spec{
			Name:           "brownout",
			Description:    "slow-shard brownout via delaying proxy: one shard answers 150ms late; scatter-gather p99 must absorb it, not error",
			Shards:         3,
			Videos:         6000,
			Seed:           20110301,
			FoldInterval:   d(300 * time.Millisecond),
			HealthInterval: d(250 * time.Millisecond),
			Warmup:         d(2 * time.Second),
			MaxOutstanding: 512,
			Phases: []Phase{{
				Name:       "steady",
				Duration:   d(12 * time.Second),
				Rate:       150,
				Batch:      1,
				IngestFrac: 0.2,
				Zipf:       1.1,
			}},
			Chaos: []ChaosEvent{
				{At: d(4 * time.Second), Action: ActionSlowShard, Shard: 0, Delay: d(150 * time.Millisecond)},
				{At: d(9 * time.Second), Action: ActionUnslowShard, Shard: 0},
			},
			SLOs: []SLO{
				// Every predict touches every shard, so the browned-out
				// window pushes p50 toward the injected delay; the SLO is
				// that requests complete, slowly, rather than failing.
				{Name: "read-p99", Stream: "read", Metric: MetricP99, Max: f(1000)},
				{Name: "read-errors", Stream: "read", Metric: MetricErrorRate, Max: f(0.02)},
				{Name: "write-errors", Stream: "write", Metric: MetricErrorRate, Max: f(0.02)},
				{Name: "staleness", Stream: "cluster", Metric: MetricStaleness, Max: f(50)},
			},
		}
	},
	"replica-kill": func() *Spec {
		return &Spec{
			Name:           "replica-kill",
			Description:    "R=2 over 3 shards; SIGKILL one replica mid-traffic — reads must fail over to the surviving copies, writes stay sloppy-accepted, the restart catches up from peers",
			Shards:         3,
			Replicas:       2,
			Videos:         4000,
			Seed:           20110301,
			FoldInterval:   d(300 * time.Millisecond),
			HealthInterval: d(250 * time.Millisecond),
			Durable:        true,
			Warmup:         d(2 * time.Second),
			MaxOutstanding: 256,
			Phases: []Phase{{
				Name:       "steady-with-loss",
				Duration:   d(10 * time.Second),
				Rate:       120,
				Batch:      1,
				IngestFrac: 0.25,
				Zipf:       1.1,
				ChurnFrac:  0.05,
			}},
			Chaos: []ChaosEvent{
				{At: d(4 * time.Second), Action: ActionKillShard, Shard: 1},
				{At: d(7 * time.Second), Action: ActionRestartShard, Shard: 1},
			},
			SLOs: []SLO{
				// The replication contract: losing one of two replicas is
				// not an availability event for reads. The tiny budgets
				// cover requests already in flight at the SIGKILL instant.
				{Name: "read-errors", Stream: "read", Metric: MetricErrorRate, Max: f(0.02)},
				{Name: "read-shed", Stream: "read", Metric: MetricShedRate, Max: f(0.02)},
				{Name: "read-p99", Stream: "read", Metric: MetricP99, Max: f(2000)},
				{Name: "read-served", Stream: "read", Metric: MetricThroughput, Min: f(20)},
				// Writes shed only when a tag's whole slice is down, which
				// never happens here; the budget covers the detection
				// window where deliveries still target the corpse.
				{Name: "write-errors", Stream: "write", Metric: MetricErrorRate, Max: f(0.15)},
				{Name: "staleness", Stream: "cluster", Metric: MetricStaleness, Max: f(200)},
				{Name: "recovery", Stream: "cluster", Metric: MetricRecoverySecs, Max: f(30)},
			},
		}
	},
	"grow-3to4": func() *Spec {
		return &Spec{
			Name:           "grow-3to4",
			Description:    "live capacity add under load: boot a 4th shard mid-traffic and reshard 3 -> 4 through the gateway's handoff barrier; requests stall briefly, none fail",
			Shards:         3,
			Replicas:       2,
			Videos:         4000,
			Seed:           20110301,
			FoldInterval:   d(300 * time.Millisecond),
			HealthInterval: d(250 * time.Millisecond),
			Warmup:         d(2 * time.Second),
			MaxOutstanding: 512,
			Phases: []Phase{{
				Name:       "steady-through-growth",
				Duration:   d(12 * time.Second),
				Rate:       120,
				Batch:      1,
				IngestFrac: 0.25,
				Zipf:       1.1,
				ChurnFrac:  0.05,
			}},
			Chaos: []ChaosEvent{
				{At: d(5 * time.Second), Action: ActionGrowCluster},
			},
			SLOs: []SLO{
				// The handoff closes the request barrier while slices
				// stream, so p99 absorbs the pause — the SLO is that the
				// move is a latency blip, not an error source.
				{Name: "read-p99", Stream: "read", Metric: MetricP99, Max: f(5000)},
				{Name: "read-errors", Stream: "read", Metric: MetricErrorRate, Max: f(0.02)},
				{Name: "read-shed", Stream: "read", Metric: MetricShedRate, Max: f(0.10)},
				{Name: "write-errors", Stream: "write", Metric: MetricErrorRate, Max: f(0.02)},
				{Name: "staleness", Stream: "cluster", Metric: MetricStaleness, Max: f(200)},
			},
		}
	},
	"ingest-burst": func() *Spec {
		return &Spec{
			Name:           "ingest-burst",
			Description:    "write-heavy burst with catalog churn between read-mostly shoulders; fold pipeline and backpressure under stress",
			Shards:         3,
			Videos:         6000,
			Seed:           20110301,
			FoldInterval:   d(200 * time.Millisecond),
			Warmup:         d(2 * time.Second),
			MaxOutstanding: 512,
			Phases: []Phase{
				{Name: "shoulder-in", Duration: d(4 * time.Second), Rate: 100, Batch: 1, IngestFrac: 0.1, Zipf: 1.1},
				{Name: "burst", Duration: d(8 * time.Second), Rate: 250, Batch: 8, IngestFrac: 0.8, Zipf: 1.1, ChurnFrac: 0.2},
				{Name: "shoulder-out", Duration: d(4 * time.Second), Rate: 100, Batch: 1, IngestFrac: 0.1, Zipf: 1.1},
			},
			SLOs: []SLO{
				{Name: "write-p99", Stream: "write", Metric: MetricP99, Max: f(800)},
				{Name: "write-errors", Stream: "write", Metric: MetricErrorRate, Max: f(0.02)},
				{Name: "read-p99", Stream: "read", Metric: MetricP99, Max: f(800)},
				{Name: "read-errors", Stream: "read", Metric: MetricErrorRate, Max: f(0.02)},
				{Name: "staleness", Stream: "cluster", Metric: MetricStaleness, Max: f(50)},
			},
		}
	},
}

// Builtin returns a fresh copy of a named scenario.
func Builtin(name string) (*Spec, error) {
	ctor, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown builtin %q (have: %s)", name, joinNames())
	}
	s := ctor()
	if err := s.Validate(); err != nil {
		// A builtin failing its own validation is a programming error;
		// surface it instead of running an unscored scenario.
		return nil, fmt.Errorf("scenario: builtin %q is invalid: %w", name, err)
	}
	return s, nil
}

// BuiltinNames lists the registry, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func joinNames() string {
	out := ""
	for i, n := range BuiltinNames() {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
