package scenario

import (
	"context"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/node"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
)

const (
	attachVideos = 1500
	attachSeed   = 20110301
)

// startAttachNode is the node cmd/serve runs standalone, over the
// spec's catalog, behind httptest: what `scenario run -target` is
// pointed at, minus the exec.
func startAttachNode(t *testing.T) *httptest.Server {
	t.Helper()
	res, err := pipeline.FromSynthetic(attachVideos, attachSeed, alexa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	o := node.DefaultOptions()
	o.IngestInterval = 50 * time.Millisecond
	o.TraceDumpDir = ""
	n, err := node.Start(context.Background(), o, &node.Base{Snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Server.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = n.Close()
	})
	return ts
}

func attachSpec() *Spec {
	return &Spec{
		Name:   "attach",
		Shards: 1, // ignored with a target
		Videos: attachVideos,
		Seed:   attachSeed,
		Warmup: d(300 * time.Millisecond),
		Phases: []Phase{
			{Name: "read-mostly", Duration: d(500 * time.Millisecond), Rate: 200, Batch: 4, IngestFrac: 0.2},
			{Name: "write-heavy", Duration: d(500 * time.Millisecond), Rate: 200, Batch: 2, IngestFrac: 0.5, ChurnFrac: 0.1},
		},
		SLOs: []SLO{
			{Name: "read-p99", Stream: "read", Metric: MetricP99, Max: f(5000)},
			{Name: "read-errors", Stream: "read", Metric: MetricErrorRate, Max: f(0.01)},
			{Name: "write-p99", Stream: "write", Metric: MetricP99, Max: f(5000)},
			{Name: "write-errors", Stream: "write", Metric: MetricErrorRate, Max: f(0.01)},
		},
	}
}

// noBoot are run options under which any attempt to build, boot or keep
// a workdir fails the run or is visible afterwards.
func noBoot(t *testing.T, target string) (RunOptions, string) {
	workdir := filepath.Join(t.TempDir(), "never-made")
	return RunOptions{
		Target:         target,
		Bins:           Binaries{Serve: "/nonexistent/serve", Gateway: "/nonexistent/gateway"},
		ModuleDir:      "/nonexistent",
		Workdir:        workdir,
		Logger:         log.New(io.Discard, "", 0),
		ScrapeInterval: 50 * time.Millisecond,
	}, workdir
}

// TestRunAttachesToRunningDaemon drives a daemon the engine did not
// start: the same workload, scraper, tracer and score as a booted run,
// at an address. Both streams flow, the warmup window is excluded and
// rates are over what is left, the scorecard's trace ids are fetchable
// from the daemon, and nothing is built, spawned or left on disk.
func TestRunAttachesToRunningDaemon(t *testing.T) {
	ts := startAttachNode(t)
	sc := attachSpec()
	opts, workdir := noBoot(t, ts.URL+"/") // a trailing slash is the same address
	rep, err := Run(sc, opts)
	if err != nil {
		t.Fatalf("attached run: %v", err)
	}
	if !rep.Pass {
		t.Fatalf("SLO breach against an idle in-process node:\n%s", Scorecard(rep))
	}
	if _, err := os.Stat(workdir); !os.IsNotExist(err) {
		t.Errorf("an attached run touched its workdir %s (stat: %v)", workdir, err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q, want %q", rep.Schema, Schema)
	}
	measured := rep.ElapsedSeconds - sc.Warmup.D().Seconds()
	for name, s := range map[string]*Stream{"read": rep.Read, "write": rep.Write} {
		if s == nil || s.Items == 0 {
			t.Fatalf("%s stream did not flow: %+v", name, s)
		}
		if want := float64(s.Requests) / measured; math.Abs(s.RequestsPerSec-want) > 0.01*want {
			t.Errorf("%s requests_per_sec = %g, want %g (requests over elapsed minus warmup)", name, s.RequestsPerSec, want)
		}
	}
	if rep.Read.Warmup == 0 {
		t.Error("no read tallied as warmup-excluded; the window did nothing")
	}
	if len(rep.Phases) != 2 || rep.Phases[1].Write == nil || rep.Phases[1].Write.Items == 0 {
		t.Errorf("per-phase trajectory missing: %+v", rep.Phases)
	}
	if rep.Traces == nil || rep.Traces.SlowestRead == "" || rep.Traces.SlowestWrite == "" {
		t.Fatalf("no worst-trace ids from the node's /debug/traces: %+v", rep.Traces)
	}
	if rep.Scorecard[0].WorstTrace != rep.Traces.SlowestRead {
		t.Errorf("read-p99 row names trace %q, want %q", rep.Scorecard[0].WorstTrace, rep.Traces.SlowestRead)
	}
	resp, err := http.Get(ts.URL + "/debug/traces/" + rep.Traces.SlowestRead)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/traces/%s on the node: status %d", rep.Traces.SlowestRead, resp.StatusCode)
	}
}

// TestRunTargetRefusals: what an attached run cannot do truthfully, it
// says — chaos is an error before the first request, and a target that
// answers nothing fails its latency rows instead of scoring 0 ms.
func TestRunTargetRefusals(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits.Add(1) }))
	defer ts.Close()
	sc := attachSpec()
	sc.Chaos = []ChaosEvent{{At: d(100 * time.Millisecond), Action: ActionSlowShard, Delay: d(time.Millisecond)}}
	opts, _ := noBoot(t, ts.URL)
	if _, err := Run(sc, opts); err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("chaos with a target: err = %v, want a refusal naming the chaos block", err)
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the refused run sent %d request(s)", n)
	}

	// A port nothing listens on: every request fails at connect.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	_ = ln.Close()
	sc = attachSpec()
	sc.Warmup = 0
	sc.Phases = sc.Phases[:1]
	// The two latency rows and a throughput floor, no error budget to notice.
	sc.SLOs = []SLO{sc.SLOs[0], sc.SLOs[2], {Name: "read-served", Stream: "read", Metric: MetricThroughput, Min: f(1)}}
	opts, _ = noBoot(t, dead)
	rep, err := Run(sc, opts)
	if err != nil {
		t.Fatalf("run against a dead target: %v (want a scored fail)", err)
	}
	if rep.Pass || rep.Scorecard[0].Pass || rep.Scorecard[1].Pass || rep.Scorecard[2].Pass {
		t.Errorf("rows passed over streams that served nothing:\n%s", Scorecard(rep))
	}
	if rep.Read != nil && rep.Read.RequestsPerSec == 0 {
		t.Errorf("the report's requests_per_sec is the offered rate and the run did send: %+v", rep.Read)
	}
	if rep.Read == nil || rep.Read.Errors == 0 || rep.Read.Items != 0 {
		t.Errorf("dead target read stream: %+v, want only errors", rep.Read)
	}
}
