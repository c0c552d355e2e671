package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func twoReports() (*Report, *Report) {
	mk := func() *Report {
		sc := validSpec()
		return &Report{
			Schema:   Schema,
			Scenario: sc.Name,
			Spec:     sc,
			Read: &Stream{
				Requests: 1000, RequestsPerSec: 100,
				Latency: Latency{P50Ms: 10, P90Ms: 40, P99Ms: 100},
			},
			Write: &Stream{
				Requests: 200, RequestsPerSec: 20,
				Latency: Latency{P50Ms: 12, P90Ms: 50, P99Ms: 120},
			},
			Cluster: ClusterResult{MaxStaleness: 10, WorstRecovery: 4},
		}
	}
	return mk(), mk()
}

func verdictOf(t *testing.T, res *CompareResult, metric string) string {
	t.Helper()
	for i := range res.Rows {
		if res.Rows[i].Metric == metric {
			return res.Rows[i].Verdict
		}
	}
	t.Fatalf("metric %s not in comparison", metric)
	return ""
}

func TestCompareIdenticalIsClean(t *testing.T) {
	base, cur := twoReports()
	res, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 || res.Improved != 0 {
		t.Fatalf("identical reports diverged: %+v", res)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base, cur := twoReports()
	// p99 2× worse: beyond even the slacked latency tolerance (45%).
	cur.Read.Latency.P99Ms = 200
	// Throughput halved: lower-is-worse direction.
	cur.Write.RequestsPerSec = 10
	res, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, res, "read.p99_ms"); got != "regressed" {
		t.Fatalf("read.p99_ms verdict = %s", got)
	}
	if got := verdictOf(t, res, "write.requests_per_sec"); got != "regressed" {
		t.Fatalf("write.requests_per_sec verdict = %s", got)
	}
	if res.Regressions != 2 {
		t.Fatalf("regressions = %d, want 2", res.Regressions)
	}
}

func TestCompareImprovementIsNotRegression(t *testing.T) {
	base, cur := twoReports()
	cur.Read.Latency.P99Ms = 20 // 5× better
	res, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, res, "read.p99_ms"); got != "improved" {
		t.Fatalf("verdict = %s, want improved", got)
	}
	if res.Regressions != 0 {
		t.Fatalf("improvement counted as regression")
	}
	if !strings.Contains(res.Render(), "IMPROVED") {
		t.Fatalf("render missing improvement verdict:\n%s", res.Render())
	}
}

func TestCompareLatencySlackAbsorbsNoise(t *testing.T) {
	base, cur := twoReports()
	// 30% worse p99: over the base 15% tolerance but inside the 3×
	// latency slack — CI noise, not a verdict.
	cur.Read.Latency.P99Ms = 130
	res, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, res, "read.p99_ms"); got != "ok" {
		t.Fatalf("30%% p99 noise verdict = %s, want ok", got)
	}
	// The same 30% on error_rate-style metrics would regress, but the
	// absolute floor protects near-zero baselines.
	cur2 := cur
	cur2.Read = &Stream{Requests: 1000, Errors: 10, RequestsPerSec: 100,
		Latency: base.Read.Latency}
	base.Read.Errors = 5
	res, err = Compare(base, cur2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, res, "read.error_rate"); got != "ok" {
		t.Fatalf("0.5%%→1%% error rate verdict = %s, want ok (inside absolute floor)", got)
	}
}

func TestCompareChaosRunsWidenLatencyFloors(t *testing.T) {
	// A +120ms p99 swing: regression in a steady-state scenario, noise
	// in a chaos one (the kill/rebuild window is heavy-tailed).
	base, cur := twoReports()
	cur.Read.Latency.P99Ms = base.Read.Latency.P99Ms + 120
	res, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, res, "read.p99_ms"); got != "regressed" {
		t.Fatalf("steady-state +120ms p99 verdict = %s, want regressed", got)
	}

	base2, cur2 := twoReports()
	for _, sc := range []*Spec{base2.Spec, cur2.Spec} {
		sc.Durable = true
		sc.Chaos = []ChaosEvent{{At: Duration(500 * time.Millisecond), Action: ActionKillShard}}
	}
	cur2.Read.Latency.P99Ms = base2.Read.Latency.P99Ms + 120
	res, err = Compare(base2, cur2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, res, "read.p99_ms"); got != "ok" {
		t.Fatalf("chaos-run +120ms p99 verdict = %s, want ok (inside the widened floor)", got)
	}
	// The widening is latency-only: counts and rates stay tight.
	cur2.Write.RequestsPerSec = base2.Write.RequestsPerSec / 2
	res, err = Compare(base2, cur2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, res, "write.requests_per_sec"); got != "regressed" {
		t.Fatalf("chaos-run halved throughput verdict = %s, want regressed", got)
	}
}

func TestCompareRefusesShapeMismatch(t *testing.T) {
	base, cur := twoReports()
	cur.Scenario = "other"
	if _, err := Compare(base, cur, nil); err == nil {
		t.Fatal("different scenarios compared")
	}
	base2, cur2 := twoReports()
	cur2.Spec.Shards = base2.Spec.Shards + 1
	if _, err := Compare(base2, cur2, nil); err == nil {
		t.Fatal("different topologies compared")
	}
}

func TestCompareSkipsUnobservedRecovery(t *testing.T) {
	base, cur := twoReports()
	base.Cluster.WorstRecovery = 0 // baseline ran without chaos
	cur.Cluster.WorstRecovery = 9
	res, err := Compare(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i].Metric == "cluster.worst_recovery_seconds" {
			t.Fatal("recovery compared when the baseline never observed one")
		}
	}
}

func TestReportFileRoundTripAndSchemaGate(t *testing.T) {
	dir := t.TempDir()
	base, _ := twoReports()
	score(base)
	path := filepath.Join(dir, "BENCH_scenarios.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenario != base.Scenario || len(back.Scorecard) != len(base.Scorecard) {
		t.Fatalf("round trip mangled the report")
	}
	// Wrong schema refuses.
	back.Schema = "viewstags-scenario/v0"
	if err := back.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
}
