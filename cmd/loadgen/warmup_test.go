package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"viewstags/internal/server"
)

// TestWarmupWindowExcludedFromBenchOut is the -warmup regression test,
// run against the real binary: a stub daemon serves /v1/predict slowly
// for the first stretch of the run and instantly afterward. With a
// warmup window covering the slow stretch, the bench-out report must
// (a) tally the slow requests as warmup-excluded, (b) keep them out of
// the latency quantiles, and (c) compute rates over the measured
// window, not the full wall clock — exactly the three ways an
// unexcluded cold start skews a short run.
func TestWarmupWindowExcludedFromBenchOut(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the loadgen binary; skipped in -short mode")
	}

	const (
		slowFor   = 600 * time.Millisecond // slow stretch, from the first request seen
		slowSleep = 300 * time.Millisecond
		warmup    = 1200 * time.Millisecond // covers every slow completion with margin
		duration  = 2400 * time.Millisecond
	)

	// Stub daemon: a fixed known answer; slowness keyed off the first
	// request's arrival so the schedule follows the loadgen's own probe.
	var (
		mu    sync.Mutex
		first time.Time
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if first.IsZero() {
			first = time.Now()
		}
		slow := time.Since(first) < slowFor
		mu.Unlock()
		if slow {
			time.Sleep(slowSleep)
		}
		resp := server.PredictResponse{Result: &server.PredictResult{
			Known: true,
			Top:   []server.CountryShare{{Country: "br", Share: 1}},
		}}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	}))
	defer ts.Close()

	dir := t.TempDir()
	bin := filepath.Join(dir, "loadgen")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	benchPath := filepath.Join(dir, "BENCH_loadgen.json")
	cmd := exec.Command(bin,
		"-url", ts.URL,
		"-videos", "200",
		"-duration", duration.String(),
		"-warmup", warmup.String(),
		"-concurrency", "2",
		"-batch", "1",
		"-bench-out", benchPath,
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bench-out is not valid JSON: %v\n%s", err, raw)
	}
	if rep.Schema != benchSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, benchSchema)
	}
	if rep.Config.Warmup != warmup.String() {
		t.Fatalf("config.warmup = %q, want %q", rep.Config.Warmup, warmup.String())
	}
	if rep.Read == nil || rep.Read.Requests == 0 {
		t.Fatalf("no measured reads: %+v", rep.Read)
	}
	if rep.Read.Warmup == 0 {
		t.Fatal("no requests tallied as warmup-excluded; the window did nothing")
	}
	// The slow stretch served 300ms responses; the measured stream is
	// pure loopback. Any leak of a slow completion into the histogram
	// drags max (and p99) to ~300ms.
	if rep.Read.Latency.MaxMs >= 150 {
		t.Fatalf("slow warmup completions leaked into measured latency: max=%.1fms p99=%.1fms",
			rep.Read.Latency.MaxMs, rep.Read.Latency.P99Ms)
	}
	// Rates must use the measured window. Closed-loop at concurrency 2
	// on loopback sustains far more than requests/elapsed would suggest;
	// cross-check the denominator directly.
	wantMeasured := (duration - warmup).Seconds()
	if rep.MeasuredSeconds < wantMeasured*0.9 || rep.MeasuredSeconds > wantMeasured*1.5 {
		t.Fatalf("measured_seconds = %.2f, want ~%.2f", rep.MeasuredSeconds, wantMeasured)
	}
	gotRate := rep.Read.RequestsPerSec
	wantRate := float64(rep.Read.Requests) / rep.MeasuredSeconds
	if gotRate < wantRate*0.99 || gotRate > wantRate*1.01 {
		t.Fatalf("requests_per_sec = %.1f, want %.1f (over the measured window)", gotRate, wantRate)
	}
}
