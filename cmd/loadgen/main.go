// Command loadgen is the closed-loop load generator for cmd/serve: it
// regenerates the daemon's synthetic catalog (same -videos/-seed ⇒ same
// video ids and tag sets), replays a Zipf-distributed upload stream
// against /v1/predict — fresh uploads are dominated by a popular head,
// exactly the arrival process a UGC ingest sees — and reports sustained
// throughput plus p50/p90/p99 latency from a fixed-bucket histogram
// (obs.Histogram, the one the daemons report theirs from), so the
// report costs O(1) memory at any request count.
//
// With -ingest-frac > 0 it runs in mixed read/write mode: that fraction
// of requests become POST /v1/ingest batches of live view events (video
// id, tags, traffic-weighted viewing country, view delta; first-drawn
// videos are flagged as uploads), so the write path — accumulation,
// backpressure, and the periodic snapshot folds it triggers — shows up
// in its own p50/p90/p99 block next to the read path's.
//
// With -warmup > 0 the first stretch of the run is excluded from every
// reported number (console and -bench-out alike): requests completing
// inside the window are tallied only as "warmup excluded", and rates
// are computed over the measured remainder. The first seconds of a run
// measure connection setup and cold caches, and on a short run they
// visibly skew p99.
//
// Collection runs on scenario.Collector — the same warmup-aware,
// histogram-backed stream accounting the chaos harness scores SLOs with — so
// the two load paths cannot drift in what "p99" or "error" means.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8091 -duration 10s -concurrency 4
//	loadgen -url http://127.0.0.1:8091 -batch 32        # batched predicts
//	loadgen -url http://127.0.0.1:8091 -ingest-frac 0.2 # mixed read/write
//	loadgen -url http://127.0.0.1:8091 -warmup 2s       # measure the warm steady state
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/scenario"
	"viewstags/internal/server"
	"viewstags/internal/synth"
	"viewstags/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// uploadItem is one catalog video as the upload/view stream sees it.
type uploadItem struct {
	id   string
	tags []string
}

func run() error {
	var (
		concurrency = flag.Int("concurrency", 4, "closed-loop workers")
		baseURL     = flag.String("url", "http://127.0.0.1:8091", "serve daemon base URL")
		videos      = flag.Int("videos", 20000, "catalog size (must match the daemon)")
		seed        = flag.Uint64("seed", 20110301, "catalog seed (must match the daemon)")
		duration    = flag.Duration("duration", 10*time.Second, "test length")
		batch       = flag.Int("batch", 4, "items per request (1 = single predict; small batches mirror an ingest pipeline)")
		weighting   = flag.String("weighting", "idf", "prediction weighting scheme")
		zipfS       = flag.Float64("zipf", 1.1, "upload-stream Zipf exponent")
		ingestFrac  = flag.Float64("ingest-frac", 0, "fraction of requests that are /v1/ingest event batches (0 = read-only)")
		warmup      = flag.Duration("warmup", 0, "initial window excluded from all reported numbers (0 = measure everything)")
		targetsFlag = flag.String("targets", "", "comma-separated base URLs to spread workers across (overrides -url; e.g. several gateways, or shards driven directly)")
		benchOut    = flag.String("bench-out", "", "also write the run's results as machine-readable JSON to this path (e.g. BENCH_loadgen.json)")
		slowestN    = flag.Int("slowest", 8, "track this many slowest request ids per stream for /debug/traces cross-referencing (0 = off)")
	)
	flag.Parse()
	if *concurrency < 1 || *batch < 1 {
		return fmt.Errorf("concurrency and batch must be >= 1")
	}
	if *ingestFrac < 0 || *ingestFrac > 1 {
		return fmt.Errorf("ingest-frac must be in [0, 1]")
	}
	if *warmup < 0 || *warmup >= *duration {
		return fmt.Errorf("warmup must be in [0, duration)")
	}
	// Workers are pinned target[w mod n]-style, so every target gets an
	// equal worker share and each worker keeps one hot keep-alive pool.
	targets := []string{*baseURL}
	if *targetsFlag != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSuffix(strings.TrimSpace(t), "/"); t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("no usable targets in -targets %q", *targetsFlag)
		}
	}

	fmt.Fprintf(os.Stderr, "regenerating %d-video catalog (seed %d)...\n", *videos, *seed)
	cfg := synth.DefaultConfig(*videos)
	cfg.Seed = *seed
	cat, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	// Tagged videos: the alphabet of both the upload replay (reads) and
	// the view-event stream (writes).
	var items []uploadItem
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			items = append(items, uploadItem{id: cat.Videos[i].ID, tags: names})
		}
	}
	if len(items) == 0 {
		return fmt.Errorf("catalog has no tagged videos")
	}
	countryCodes := cat.World.Codes()

	// One shared transport with enough idle conns for every worker keeps
	// the loop on hot keep-alive connections.
	transport := &http.Transport{
		MaxIdleConns:        *concurrency * 2,
		MaxIdleConnsPerHost: *concurrency * 2,
	}
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}

	// Fail fast when a daemon is missing or serving another catalog.
	for _, target := range targets {
		probe, err := predictOnce(client, target+"/v1/predict", items[0].tags, *weighting, 1)
		if err != nil {
			return fmt.Errorf("probe: %w (is cmd/serve or cmd/gateway running at %s?)", err, target)
		}
		if !probe {
			fmt.Fprintf(os.Stderr, "warning: probe tags unknown at %s — catalog seed/size mismatch, or a lone shard holding a partial vocabulary?\n", target)
		}
	}

	reads := scenario.NewCollector(time.Time{})
	writes := scenario.NewCollector(time.Time{})
	// dedup coordinates the one-time Upload flag per video across all
	// workers — CAS claim/release ownership, see dedup.go.
	var dedup *uploadDedup
	if *ingestFrac > 0 {
		dedup = newUploadDedup(len(items))
	}
	startWall := time.Now()
	deadline := startWall.Add(*duration)
	if *warmup > 0 {
		cutoff := startWall.Add(*warmup)
		reads.SetCutoff(cutoff)
		writes.SetCutoff(cutoff)
	}
	// Slowest-request ledgers: the daemon echoes X-Request-Id on every
	// response, and its trace ring retains the slowest requests per
	// route — recording the worst ids here lets a bench regression be
	// cross-referenced against GET /debug/traces/{id} right after a run.
	slowReads := newSlowTracker(*slowestN, startWall, startWall.Add(*warmup))
	slowWrites := newSlowTracker(*slowestN, startWall, startWall.Add(*warmup))
	var wg sync.WaitGroup
	for wkr := 0; wkr < *concurrency; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			predictURL := targets[wkr%len(targets)] + "/v1/predict"
			ingestURL := targets[wkr%len(targets)] + "/v1/ingest"
			src := xrand.NewSource(uint64(wkr) + 1)
			zipf := xrand.NewZipf(src.Fork("uploads"), *zipfS, len(items))
			viewer := xrand.NewCategorical(src.Fork("viewers"), cat.World.Traffic())
			mix := src.Fork("mix")
			views := src.Fork("views")
			var body bytes.Buffer
			for time.Now().Before(deadline) {
				body.Reset()
				if mix.Bernoulli(*ingestFrac) {
					req := server.IngestRequest{Events: make([]server.IngestEvent, *batch)}
					var flagged []int // videos this worker's claims cover
					for i := range req.Events {
						v := zipf.Rank()
						// claim takes the one-time Upload flag across all
						// workers; a shed or failed batch releases exactly
						// the claims this worker holds (CAS ownership, see
						// dedup.go) so the announcement is retried.
						upload := dedup.claim(v)
						if upload {
							flagged = append(flagged, v)
						}
						req.Events[i] = server.IngestEvent{
							Video:   items[v].id,
							Tags:    items[v].tags,
							Country: countryCodes[viewer.Draw()],
							Views:   float64(1 + views.Intn(50)),
							Upload:  upload,
						}
					}
					encodeErr := json.NewEncoder(&body).Encode(&req)
					var accepted int64
					var shed bool
					var err error = encodeErr
					if encodeErr == nil {
						start := time.Now()
						var rid string
						accepted, shed, rid, err = postIngest(client, ingestURL, &body)
						done := time.Now()
						writes.Observe(done.Sub(start), accepted, 0, err != nil, shed, done)
						slowWrites.observe(rid, done.Sub(start), done)
					} else {
						writes.Observe(0, 0, 0, true, false, time.Now())
					}
					if err != nil || shed {
						for _, v := range flagged {
							if !dedup.release(v) {
								// Unreachable while the claim protocol
								// holds; loudly visible if it regresses.
								fmt.Fprintf(os.Stderr, "loadgen: BUG: released upload claim %d twice\n", v)
							}
						}
					}
				} else {
					req := server.PredictRequest{Weighting: *weighting, Top: 3}
					if *batch == 1 {
						req.Tags = items[zipf.Rank()].tags
					} else {
						req.Batch = make([]server.PredictItem, *batch)
						for i := range req.Batch {
							req.Batch[i] = server.PredictItem{Tags: items[zipf.Rank()].tags}
						}
					}
					if err := json.NewEncoder(&body).Encode(&req); err != nil {
						reads.Observe(0, 0, 0, true, false, time.Now())
						continue
					}
					start := time.Now()
					preds, fallback, rid, err := postPredict(client, predictURL, &body)
					done := time.Now()
					reads.Observe(done.Sub(start), preds, fallback, err != nil, false, done)
					slowReads.observe(rid, done.Sub(start), done)
				}
			}
		}(wkr)
	}
	wg.Wait()

	elapsed := time.Since(startWall)
	// Every rate and both reports run over the measured window: the
	// warmup stretch contributed no counted observations, so dividing by
	// the full elapsed time would understate sustained throughput.
	measured := elapsed - *warmup
	if *ingestFrac < 1 {
		reads.Report("read ", "predictions", measured, *batch)
	}
	if *ingestFrac > 0 {
		writes.Report("write", "events", measured, *batch)
	}
	if *benchOut != "" {
		rep := &benchReport{
			Schema: benchSchema,
			Config: benchConfig{
				Targets:     targets,
				Concurrency: *concurrency,
				Batch:       *batch,
				Duration:    duration.String(),
				Warmup:      warmup.String(),
				Weighting:   *weighting,
				IngestFrac:  *ingestFrac,
				Videos:      *videos,
				Seed:        *seed,
				Zipf:        *zipfS,
			},
			ElapsedSeconds:  elapsed.Seconds(),
			MeasuredSeconds: measured.Seconds(),
		}
		if *ingestFrac < 1 {
			s := reads.Snapshot(measured)
			rep.Read = &s
			rep.SlowestRead = slowReads.list()
		}
		if *ingestFrac > 0 {
			s := writes.Snapshot(measured)
			rep.Write = &s
			rep.SlowestWrite = slowWrites.list()
		}
		if err := writeBenchReport(*benchOut, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *benchOut)
	}
	// Success means each requested stream actually flowed: reads unless
	// the mix is pure-write, writes whenever a write fraction was asked.
	if *ingestFrac < 1 && reads.Items() == 0 {
		return fmt.Errorf("no successful predictions")
	}
	if *ingestFrac > 0 && writes.Items() == 0 {
		return fmt.Errorf("no accepted ingest events")
	}
	return nil
}

// postPredict sends one request and returns (#predictions, #fallbacks,
// echoed X-Request-Id). The id is read before any status check so even
// errored requests stay traceable.
func postPredict(client *http.Client, endpoint string, body io.Reader) (int64, int64, string, error) {
	resp, err := client.Post(endpoint, "application/json", body)
	if err != nil {
		return 0, 0, "", err
	}
	defer func() { _ = resp.Body.Close() }()
	rid := resp.Header.Get(obs.TraceHeader)
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, 0, rid, fmt.Errorf("status %d", resp.StatusCode)
	}
	var pr server.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return 0, 0, rid, err
	}
	var preds, fallback int64
	if pr.Result != nil {
		preds = 1
		if !pr.Result.Known {
			fallback = 1
		}
	}
	for i := range pr.Results {
		preds++
		if !pr.Results[i].Known {
			fallback++
		}
	}
	return preds, fallback, rid, nil
}

// postIngest sends one event batch and returns (#accepted, shed, echoed
// X-Request-Id). A 503 is backpressure — the daemon shedding load by
// design — reported separately from errors.
func postIngest(client *http.Client, endpoint string, body io.Reader) (int64, bool, string, error) {
	resp, err := client.Post(endpoint, "application/json", body)
	if err != nil {
		return 0, false, "", err
	}
	defer func() { _ = resp.Body.Close() }()
	rid := resp.Header.Get(obs.TraceHeader)
	if resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, true, rid, nil
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, false, rid, fmt.Errorf("status %d", resp.StatusCode)
	}
	var ir server.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return 0, false, rid, err
	}
	return int64(ir.Accepted), false, rid, nil
}

// predictOnce round-trips a single probe request.
func predictOnce(client *http.Client, endpoint string, tags []string, weighting string, top int) (bool, error) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(server.PredictRequest{Tags: tags, Weighting: weighting, Top: top}); err != nil {
		return false, err
	}
	resp, err := client.Post(endpoint, "application/json", &body)
	if err != nil {
		return false, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var pr server.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return false, err
	}
	return pr.Result != nil && pr.Result.Known, nil
}
