package scenario

import (
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
)

// TestChaosSmokeEndToEnd is the acceptance test for the whole harness:
// build the real serve and gateway binaries, boot a 3-shard durable
// cluster, drive the flash-crowd workload, SIGKILL shard 1 mid-spike,
// restart it, and require every chaos-smoke SLO to hold — including an
// actually-observed recovery — then round-trip the written report
// through the schema gate. This is the same scenario CI runs through
// cmd/scenario; keeping it inside `go test ./...` means the harness
// cannot rot even if the CI step is edited away.
func TestChaosSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end cluster run skipped in -short mode")
	}
	sc, err := Builtin("chaos-smoke")
	if err != nil {
		t.Fatal(err)
	}
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{
		ModuleDir: moduleDir,
		Logger:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	if !rep.Pass {
		t.Fatalf("chaos-smoke SLO breach:\n%s", Scorecard(rep))
	}

	// The scorecard must carry every declared SLO, and the chaos block
	// must show a real (non-instant) measured recovery: a harness that
	// stopped observing the outage would quietly report ~0 here.
	if len(rep.Scorecard) != len(sc.SLOs) {
		t.Fatalf("scorecard has %d rows for %d SLOs", len(rep.Scorecard), len(sc.SLOs))
	}
	if len(rep.Chaos) != len(sc.Chaos) {
		t.Fatalf("chaos results: %d fired of %d declared", len(rep.Chaos), len(sc.Chaos))
	}
	var killRecovery float64
	for _, c := range rep.Chaos {
		if c.Action == ActionKillShard {
			killRecovery = c.Recovery
		}
	}
	if killRecovery < 1 {
		t.Fatalf("kill-shard recovery = %gs; the outage window was never observed", killRecovery)
	}
	if rep.Cluster.FinalHealthy != sc.Shards {
		t.Fatalf("run ended with %d/%d shards healthy", rep.Cluster.FinalHealthy, sc.Shards)
	}
	if rep.Read == nil || rep.Read.Requests == 0 {
		t.Fatal("no measured read traffic")
	}
	if rep.Read.Warmup == 0 {
		t.Fatal("warmup window tallied no requests; the exclusion is not exercised")
	}
	if rep.Write == nil || rep.Write.Requests == 0 {
		t.Fatal("no measured write traffic")
	}

	// Report file: schema-valid, atomic, and loadable by the comparator
	// entry point — and self-comparison is a clean no-op.
	out := filepath.Join(t.TempDir(), "BENCH_scenarios.json")
	if err := rep.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil || probe.Schema != Schema {
		t.Fatalf("written report schema = %q, err %v", probe.Schema, err)
	}
	res, err := Compare(back, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 || res.Improved != 0 {
		t.Fatalf("self-comparison diverged:\n%s", res.Render())
	}
}
