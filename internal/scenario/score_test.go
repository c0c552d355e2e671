package scenario

import (
	"strings"
	"testing"
	"time"
)

func reportFor(t *testing.T, slos []SLO) *Report {
	t.Helper()
	sc := validSpec()
	sc.SLOs = slos
	return &Report{
		Schema:   Schema,
		Scenario: sc.Name,
		Spec:     sc,
		Read: &Stream{
			Requests: 1000, Errors: 10, Shed: 100, Dropped: 0,
			RequestsPerSec: 100,
			Latency:        Latency{P50Ms: 5, P90Ms: 20, P99Ms: 80},
		},
		Cluster: ClusterResult{MaxStaleness: 12, WorstRecovery: 3.5},
	}
}

func TestScoreBounds(t *testing.T) {
	lo, hi := 50.0, 100.0
	// Of 1000 requests at 100/s, 10 failed and 100 were shed: 89/s served.
	served, offered := 89.0, 100.0
	cases := []struct {
		name string
		slo  SLO
		pass bool
	}{
		{"p99 under max", SLO{Name: "a", Stream: "read", Metric: MetricP99, Max: &hi}, true},
		{"p99 over max", SLO{Name: "b", Stream: "read", Metric: MetricP99, Max: &lo}, false},
		{"throughput over min", SLO{Name: "c", Stream: "read", Metric: MetricThroughput, Min: &lo}, true},
		{"throughput at min", SLO{Name: "d", Stream: "read", Metric: MetricThroughput, Min: &served}, true},
		{"offered rate is not throughput", SLO{Name: "d2", Stream: "read", Metric: MetricThroughput, Min: &offered}, false},
		{"staleness", SLO{Name: "e", Stream: "cluster", Metric: MetricStaleness, Max: &lo}, true},
		{"recovery", SLO{Name: "f", Stream: "cluster", Metric: MetricRecoverySecs, Max: &lo}, true},
	}
	for _, tc := range cases {
		rep := reportFor(t, []SLO{tc.slo})
		score(rep)
		if len(rep.Scorecard) != 1 {
			t.Fatalf("%s: %d rows", tc.name, len(rep.Scorecard))
		}
		if rep.Scorecard[0].Pass != tc.pass || rep.Pass != tc.pass {
			t.Errorf("%s: pass=%v want %v (value %g bound %s)",
				tc.name, rep.Scorecard[0].Pass, tc.pass, rep.Scorecard[0].Value, rep.Scorecard[0].Bound)
		}
	}
}

func TestScoreErrorRateCountsDrops(t *testing.T) {
	max := 0.05
	rep := reportFor(t, []SLO{{Name: "err", Stream: "read", Metric: MetricErrorRate, Max: &max}})
	// 10 errors / 1000 = 1%: passes.
	score(rep)
	if !rep.Pass {
		t.Fatalf("1%% error rate failed a 5%% budget: %+v", rep.Scorecard)
	}
	// Open-loop drops count against the same budget: 90 drops push the
	// rate to (10+90)/1090 ≈ 9%.
	rep.Read.Dropped = 90
	score(rep)
	if rep.Pass {
		t.Fatal("dropped arrivals did not count toward the error budget")
	}
}

func TestScoreUnobservedRecoveryFails(t *testing.T) {
	max := 1000.0
	rep := reportFor(t, []SLO{{Name: "rec", Stream: "cluster", Metric: MetricRecoverySecs, Max: &max}})
	rep.Cluster.WorstRecovery = -1 // chaos fired; cluster never healed
	score(rep)
	if rep.Pass {
		t.Fatal("unobserved recovery passed a recovery SLO")
	}
}

func TestScoreAbsentStreamScoresZero(t *testing.T) {
	min, max := 1.0, 1000.0
	cases := []struct {
		name   string
		slo    SLO
		mutate func(*Report)
	}{
		{"throughput-min over an absent stream",
			SLO{Name: "w", Stream: "write", Metric: MetricThroughput, Min: &min},
			func(r *Report) { r.Write = nil }},
		// A latency of 0 over a stream that served nothing is not a
		// latency: aimed at a wrong port, every request fails and the
		// quantiles of the empty histogram read 0 <= max.
		{"p99-max over an absent stream",
			SLO{Name: "w99", Stream: "write", Metric: MetricP99, Max: &max},
			func(r *Report) { r.Write = nil }},
		{"p50-max over a stream whose every request failed or was shed",
			SLO{Name: "r50", Stream: "read", Metric: MetricP50, Max: &max},
			func(r *Report) { r.Read = &Stream{Requests: 40, Errors: 30, Shed: 10} }},
		// Requests sent are not requests served: the offered rate of a
		// stream that answered nothing is whatever the spec asked for.
		{"throughput-min over a stream whose every request failed or was shed",
			SLO{Name: "r", Stream: "read", Metric: MetricThroughput, Min: &min},
			func(r *Report) { r.Read = &Stream{Requests: 40, Errors: 30, Shed: 10, RequestsPerSec: 232} }},
	}
	for _, tc := range cases {
		rep := reportFor(t, []SLO{tc.slo})
		tc.mutate(rep)
		score(rep)
		if rep.Pass || rep.Scorecard[0].Pass {
			t.Errorf("%s passed vacuously: %+v", tc.name, rep.Scorecard[0])
		}
	}
}

func TestScorecardRendering(t *testing.T) {
	hi := 100.0
	rep := reportFor(t, []SLO{{Name: "p99", Stream: "read", Metric: MetricP99, Max: &hi}})
	score(rep)
	out := Scorecard(rep)
	for _, want := range []string{"PASS", "p99", "=> PASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scorecard missing %q:\n%s", want, out)
		}
	}
}

func TestStreamRates(t *testing.T) {
	s := Stream{Requests: 900, Errors: 9, Shed: 50, Dropped: 100}
	if got := s.ErrorRate(); got != 109.0/1000.0 {
		t.Fatalf("ErrorRate = %g", got)
	}
	if got := s.ShedRate(); got != 50.0/1000.0 {
		t.Fatalf("ShedRate = %g", got)
	}
	var zero Stream
	if zero.ErrorRate() != 0 || zero.ShedRate() != 0 {
		t.Fatal("zero stream rates must be 0")
	}
}

func TestCollectorWarmupCutoff(t *testing.T) {
	base := time.Now()
	c := newCollector(base.Add(2 * time.Second))
	// Warmup observations: slow outliers that must never reach the
	// histogram.
	for i := 0; i < 50; i++ {
		c.Observe(5*time.Second, 1, 0, false, false, base.Add(time.Second))
	}
	// Measured observations: uniform 10ms.
	for i := 0; i < 500; i++ {
		c.Observe(10*time.Millisecond, 1, 0, false, false, base.Add(3*time.Second))
	}
	s := c.Snapshot(10 * time.Second)
	if s.Warmup != 50 {
		t.Fatalf("warmup tally = %d, want 50", s.Warmup)
	}
	if s.Requests != 500 || s.Items != 500 {
		t.Fatalf("measured counts = %d req / %d items, want 500/500", s.Requests, s.Items)
	}
	if s.Latency.P99Ms > 11 || s.Latency.MaxMs > 11 {
		t.Fatalf("warmup outliers leaked into quantiles: p99=%g max=%g", s.Latency.P99Ms, s.Latency.MaxMs)
	}
	if s.RequestsPerSec != 50 {
		t.Fatalf("rate over measured window = %g, want 50", s.RequestsPerSec)
	}
}

func TestResolveRecoveriesWaitsForObservedImpact(t *testing.T) {
	at := func(sec float64, ok bool, healthy int) scrapeSample {
		return scrapeSample{
			at:           time.Duration(sec * float64(time.Second)),
			ok:           ok,
			healthy:      healthy,
			shardHealthy: []bool{true, true, true},
		}
	}
	// Kill at t=3. The scrape at t=3.1 still shows all-healthy (the
	// detector has not tripped yet) — it must NOT count as recovery.
	// Impact shows at t=3.6; the cluster is whole again at t=6.1.
	samples := []scrapeSample{
		at(2.6, true, 3), at(3.1, true, 3), at(3.6, true, 2),
		at(4.1, true, 2), at(5.6, true, 2), at(6.1, true, 3),
	}
	fired := resolveRecoveries([]ChaosResult{{At: 3, Action: ActionKillShard, Shard: 1}}, samples)
	if got := fired[0].Recovery; got < 3.0 || got > 3.2 {
		t.Fatalf("recovery = %gs, want ~3.1s (measured to the heal, past the pre-detection scrape)", got)
	}

	// Impact observed but never healed: -1.
	fired = resolveRecoveries([]ChaosResult{{At: 3, Action: ActionKillShard}}, samples[:5])
	if fired[0].Recovery != -1 {
		t.Fatalf("unhealed recovery = %g, want -1", fired[0].Recovery)
	}

	// Fault healed between scrapes (never observed): 0, not a fake
	// sub-scrape recovery.
	quick := []scrapeSample{at(2.6, true, 3), at(3.1, true, 3), at(3.6, true, 3)}
	fired = resolveRecoveries([]ChaosResult{{At: 3, Action: ActionKillShard}}, quick)
	if fired[0].Recovery != 0 {
		t.Fatalf("unobserved fault recovery = %g, want 0", fired[0].Recovery)
	}

	// Gateway restart: the unreachable window (ok=false) is the impact.
	gw := []scrapeSample{at(2.6, true, 3), at(3.4, false, 0), at(4.2, true, 3)}
	fired = resolveRecoveries([]ChaosResult{{At: 3, Action: ActionRestartGateway, Shard: -1}}, gw)
	if got := fired[0].Recovery; got < 1.1 || got > 1.3 {
		t.Fatalf("gateway restart recovery = %g, want ~1.2", got)
	}
}

func TestCollectorZeroCutoffDisablesWarmup(t *testing.T) {
	c := newCollector(time.Time{})
	c.Observe(time.Millisecond, 1, 0, false, false, time.Now().Add(-time.Hour))
	if s := c.Snapshot(time.Second); s.Warmup != 0 || s.Requests != 1 {
		t.Fatalf("zero cutoff mis-tallied: %+v", s)
	}
}
