// Benchmark harness: one bench per paper artifact (T1, F1–F3) and per
// derived experiment (E4–E6), plus the ablations DESIGN.md calls out.
// Run with:
//
//	go test -bench=. -benchmem
//
// The benches report the experiment's headline quantity through
// b.ReportMetric (e.g. drop-rate, JS divergence, hit ratio), so a bench
// run doubles as a reproduction record; EXPERIMENTS.md snapshots them.
package viewstags_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/bincodec"
	"viewstags/internal/cluster"
	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/geocache"
	"viewstags/internal/ingest"
	"viewstags/internal/mapchart"
	"viewstags/internal/pipeline"
	"viewstags/internal/placement"
	"viewstags/internal/profilestore"
	"viewstags/internal/reconstruct"
	"viewstags/internal/report"
	"viewstags/internal/ring"
	"viewstags/internal/server"
	"viewstags/internal/stats"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// benchScale is the shared fixture size: large enough for stable
// statistics, small enough that the full bench suite runs in minutes.
const benchScale = 12000

var (
	benchOnce sync.Once
	benchRes  *pipeline.Result
	benchErr  error
)

func benchFixture(b *testing.B) *pipeline.Result {
	b.Helper()
	benchOnce.Do(func() {
		benchRes, benchErr = pipeline.FromSynthetic(benchScale, 20110301, alexa.DefaultConfig())
	})
	if benchErr != nil {
		b.Fatalf("fixture: %v", benchErr)
	}
	return benchRes
}

var (
	nodeOnce   sync.Once
	nodeSnap   *profilestore.Snapshot
	nodeServed *synth.Served
	nodeErr    error
)

// nodeFixture is a standalone node's boot over the benchmark's catalog
// (bench/spec.go: 20 000 videos, seed 20110301): the whole-vocabulary
// snapshot and the served catalog, from the one streaming pass.
func nodeFixture(tb testing.TB) (*profilestore.Snapshot, *synth.Served) {
	tb.Helper()
	nodeOnce.Do(func() {
		var boot *pipeline.Boot
		if boot, nodeErr = pipeline.BootSynthetic(bootPeakVideos, bootPeakSeed, alexa.DefaultConfig(), nil, true); nodeErr != nil {
			return
		}
		nodeSnap, nodeErr = profilestore.BuildAggregate(boot.Aggregate)
		nodeServed = boot.Served
	})
	if nodeErr != nil {
		tb.Fatalf("node fixture: %v", nodeErr)
	}
	return nodeSnap, nodeServed
}

// nodeServer is a server over its own store of the node fixture's
// snapshot, with the served catalog set when withCatalog.
func nodeServer(tb testing.TB, withCatalog bool) *server.Server {
	tb.Helper()
	snap, served := nodeFixture(tb)
	store, err := profilestore.NewStore(snap)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := server.New(server.DefaultConfig(), store)
	if err != nil {
		tb.Fatal(err)
	}
	if withCatalog {
		if err := srv.SetCatalog(served); err != nil {
			tb.Fatal(err)
		}
	}
	return srv
}

// BenchmarkT1DatasetPipeline regenerates the §2 dataset table: generate
// → extract records → filter. Reported metric: drop-rate percent
// (paper: 35.0%).
func BenchmarkT1DatasetPipeline(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := pipeline.FromSynthetic(4000, uint64(i)+1, alexa.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		drop = res.Clean.Report.DropRate()
	}
	b.ReportMetric(100*drop, "droprate-%")
}

// BenchmarkF1TopVideoMap renders Fig. 1: the most-viewed video's
// popularity map from its quantized pop vector. Reported metric: number
// of countries at the 61 cap (paper: several, e.g. US and SG).
func BenchmarkF1TopVideoMap(b *testing.B) {
	res := benchFixture(b)
	an := res.Analysis
	best, bestViews := -1, int64(-1)
	for i := 0; i < an.N(); i++ {
		if v := an.Record(i).TotalViews; v > bestViews {
			best, bestViews = i, v
		}
	}
	pop, err := an.Record(best).PopVector(res.World)
	if err != nil {
		b.Fatal(err)
	}
	intens := make([]float64, len(pop))
	capped := 0
	for c, x := range pop {
		intens[c] = float64(x)
		if x == mapchart.MaxIntensity {
			capped++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.WorldMap(res.World, intens, "F1"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(capped), "countries-at-cap")
}

// BenchmarkF2GlobalTagMap regenerates Fig. 2: the tag 'pop' against the
// world traffic distribution. Reported metric: JS divergence to traffic
// (paper shape: small).
func BenchmarkF2GlobalTagMap(b *testing.B) {
	res := benchFixture(b)
	var js float64
	for i := 0; i < b.N; i++ {
		p, ok := res.Analysis.TagProfile("pop")
		if !ok {
			b.Fatal("tag 'pop' missing")
		}
		if _, err := report.WorldMap(res.World, p.Views, "F2"); err != nil {
			b.Fatal(err)
		}
		js = p.JSToTraffic
	}
	b.ReportMetric(js, "JS-to-traffic")
}

// BenchmarkF3LocalTagMap regenerates Fig. 3: the tag 'favela',
// concentrated in Brazil. Reported metric: Brazil's share of the tag's
// views (paper shape: dominant).
func BenchmarkF3LocalTagMap(b *testing.B) {
	res := benchFixture(b)
	var brShare float64
	br := res.World.MustByCode("BR")
	for i := 0; i < b.N; i++ {
		p, ok := res.Analysis.TagProfile("favela")
		if !ok {
			b.Fatal("tag 'favela' missing")
		}
		if _, err := report.WorldMap(res.World, p.Views, "F3"); err != nil {
			b.Fatal(err)
		}
		brShare = dist.Normalize(p.Views)[br]
	}
	b.ReportMetric(100*brShare, "BR-share-%")
}

// BenchmarkE4ReconstructionSweep scores Eq. 1–2 reconstruction against
// ground truth across Alexa noise levels. Reported metric: mean JS at
// the highest noise level of the sweep.
func BenchmarkE4ReconstructionSweep(b *testing.B) {
	res := benchFixture(b)
	cat := res.Catalog
	var lastJS float64
	for i := 0; i < b.N; i++ {
		for _, sigma := range []float64{0, 0.1, 0.2, 0.4} {
			pyt, err := alexa.Estimate(cat.World, alexa.Config{NoiseSigma: sigma, Seed: 2011})
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			n := 0
			for j := range cat.Videos {
				v := &cat.Videos[j]
				if v.PopState != synth.PopStateOK || v.TotalViews < 1000 {
					continue
				}
				rec, err := reconstruct.Views(v.PopVector, pyt, v.TotalViews)
				if err != nil {
					continue
				}
				q, err := reconstruct.Score(rec, v.TrueViews)
				if err != nil {
					b.Fatal(err)
				}
				sum += q.JS
				n++
			}
			lastJS = sum / float64(n)
		}
	}
	b.ReportMetric(lastJS, "meanJS-sigma0.4")
}

// BenchmarkE5TagPrediction evaluates the paper's conjecture: hold-out
// prediction of view fields from tags vs the baselines. Reported
// metrics: the predictor's mean JS and its margin over the best
// baseline.
func BenchmarkE5TagPrediction(b *testing.B) {
	res := benchFixture(b)
	var r *tagviews.EvalResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = tagviews.Evaluate(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt, tagviews.DefaultEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TagJS, "JS-tags")
	best := r.PriorJS
	if r.UploadJS < best {
		best = r.UploadJS
	}
	b.ReportMetric(best-r.TagJS, "JS-margin-vs-best-baseline")
	b.ReportMetric(r.TagTop1, "top1-accuracy")
}

// benchPredictions computes tag predictions for E6 once.
var (
	predOnce sync.Once
	predVals [][]float64
	predErr  error
)

func benchPredictions(b *testing.B) [][]float64 {
	b.Helper()
	res := benchFixture(b)
	predOnce.Do(func() {
		pred, err := tagviews.NewPredictor(res.Analysis, tagviews.WeightIDF)
		if err != nil {
			predErr = err
			return
		}
		cat := res.Catalog
		predVals = make([][]float64, len(cat.Videos))
		for i := range cat.Videos {
			names := cat.Videos[i].TagNames(cat.Vocab)
			if len(names) == 0 {
				continue
			}
			if p, ok := pred.Predict(names); ok {
				predVals[i] = p
			}
		}
	})
	if predErr != nil {
		b.Fatal(predErr)
	}
	return predVals
}

// BenchmarkE6GeoCache replays the request stream against each policy at
// 64 slots/country. Reported metric per sub-bench: hit ratio.
func BenchmarkE6GeoCache(b *testing.B) {
	res := benchFixture(b)
	preds := benchPredictions(b)
	cfg := geocache.DefaultConfig()
	cfg.Requests = 100_000
	sim, err := geocache.NewSimulator(res.Catalog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.SetPredictions(preds); err != nil {
		b.Fatal(err)
	}
	for _, p := range []geocache.PolicyKind{
		geocache.PolicyLRU, geocache.PolicyLFU, geocache.PolicyPopPush,
		geocache.PolicyTagPush, geocache.PolicyHybrid, geocache.PolicyOracle,
	} {
		b.Run(p.String(), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(p, 64)
				if err != nil {
					b.Fatal(err)
				}
				hit = r.HitRatio
			}
			b.ReportMetric(hit, "hit-ratio")
		})
	}
}

// BenchmarkAblationWeighting compares the predictor's three tag
// weighting schemes (DESIGN.md §5).
func BenchmarkAblationWeighting(b *testing.B) {
	res := benchFixture(b)
	for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
		b.Run(w.String(), func(b *testing.B) {
			cfg := tagviews.DefaultEvalConfig()
			cfg.Weighting = w
			var r *tagviews.EvalResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = tagviews.Evaluate(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.TagJS, "JS-tags")
		})
	}
}

// BenchmarkAblationPushBudget sweeps the tag-push policy's per-country
// capacity (DESIGN.md §5).
func BenchmarkAblationPushBudget(b *testing.B) {
	res := benchFixture(b)
	preds := benchPredictions(b)
	cfg := geocache.DefaultConfig()
	cfg.Requests = 60_000
	sim, err := geocache.NewSimulator(res.Catalog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.SetPredictions(preds); err != nil {
		b.Fatal(err)
	}
	for _, slots := range []int{16, 64, 256} {
		b.Run(benchName("slots", slots), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(geocache.PolicyTagPush, slots)
				if err != nil {
					b.Fatal(err)
				}
				hit = r.HitRatio
			}
			b.ReportMetric(hit, "hit-ratio")
		})
	}
}

// BenchmarkAblationQuantization compares reconstruction loss under the
// chart API's two encodings: simple (62 levels, what YouTube used) vs
// extended (4096 levels) — isolating pure quantization error
// (DESIGN.md §5).
func BenchmarkAblationQuantization(b *testing.B) {
	res := benchFixture(b)
	cat := res.Catalog
	pyt, err := alexa.Estimate(cat.World, alexa.Config{NoiseSigma: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, levels := range []int{mapchart.MaxIntensity, 64*64 - 1} { // simple and extended encoding's top levels
		b.Run(benchName("levels", levels), func(b *testing.B) {
			var meanJS float64
			for i := 0; i < b.N; i++ {
				var sum float64
				n := 0
				views := make([]float64, cat.World.N())
				for j := range cat.Videos {
					v := &cat.Videos[j]
					if v.PopState != synth.PopStateOK || v.TotalViews < 1000 {
						continue
					}
					for c, x := range v.TrueViews {
						views[c] = float64(x)
					}
					intens, err := mapchart.IntensityInto(make([]float64, len(views)), views, cat.World.Traffic())
					if err != nil {
						b.Fatal(err)
					}
					pop := mapchart.QuantizeInto(make([]int, len(intens)), intens, levels)
					rec, err := reconstruct.Views(pop, pyt, v.TotalViews)
					if err != nil {
						continue
					}
					q, err := reconstruct.Score(rec, v.TrueViews)
					if err != nil {
						b.Fatal(err)
					}
					sum += q.JS
					n++
				}
				meanJS = sum / float64(n)
			}
			b.ReportMetric(meanJS, "meanJS")
		})
	}
}

// BenchmarkTagAggregation measures the Eq. 3 aggregation core in
// isolation (records/sec of the Build step).
func BenchmarkTagAggregation(b *testing.B) {
	res := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tagviews.Build(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Clean.Records)), "records/op")
}

// BenchmarkReconstructionThroughput measures single-video Eq. 1–2
// inversion cost.
func BenchmarkReconstructionThroughput(b *testing.B) {
	res := benchFixture(b)
	pop := res.Clean.Pop
	recs := res.Clean.Records
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(recs)
		if _, err := reconstruct.Views(pop[j], res.Pyt, recs[j].TotalViews); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapChartRoundTrip measures chart URL encode+parse (the
// crawler's per-video scrape cost).
func BenchmarkMapChartRoundTrip(b *testing.B) {
	codes := []string{"US", "GB", "FR", "DE", "BR", "JP", "KR", "IN", "RU", "MX"}
	vals := []int{61, 40, 35, 30, 25, 20, 15, 10, 5, 1}
	chart := &mapchart.Chart{Codes: codes, Intensities: vals}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := chart.BuildURL()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mapchart.ParseURL(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatsSubstrate exercises the Gini/entropy path over the tag
// corpus (used by the characterization reports).
func BenchmarkStatsSubstrate(b *testing.B) {
	res := benchFixture(b)
	totals := make([]float64, 0, res.Analysis.NumTags())
	for _, p := range res.Analysis.TopTags(res.Analysis.NumTags()) {
		totals = append(totals, p.TotalViews)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.Gini(totals)
		_ = stats.Entropy(totals)
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + strconv.Itoa(n)
}

// BenchmarkAblationTopicDrift sweeps the generator's topic-drift rate —
// the fraction of videos whose topic anchors away from the uploader's
// country. Drift is what makes tags a strictly better marker than
// uploader location; the reported metric is the E5 JS margin of the tag
// predictor over the upload-country baseline at each drift level.
func BenchmarkAblationTopicDrift(b *testing.B) {
	for _, drift := range []float64{0, 0.15, 0.30, 0.60} {
		b.Run("drift-"+strconv.FormatFloat(drift, 'f', 2, 64), func(b *testing.B) {
			var margin float64
			for i := 0; i < b.N; i++ {
				cfg := synth.DefaultConfig(5000)
				cfg.TopicDrift = drift
				res, err := pipeline.FromSyntheticConfig(cfg, alexa.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				r, err := tagviews.Evaluate(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt, tagviews.DefaultEvalConfig())
				if err != nil {
					b.Fatal(err)
				}
				margin = r.UploadJS - r.TagJS
			}
			b.ReportMetric(margin, "JS-margin-over-upload")
		})
	}
}

// BenchmarkAblationTemporalLocality sweeps request-stream burstiness:
// as temporal locality grows, reactive LRU closes the gap to tag-push
// (the EXPERIMENTS.md validity note, quantified). Reported metric:
// tag-push hit ratio minus LRU hit ratio.
func BenchmarkAblationTemporalLocality(b *testing.B) {
	res := benchFixture(b)
	preds := benchPredictions(b)
	for _, locality := range []float64{0, 0.25, 0.5} {
		b.Run("locality-"+strconv.FormatFloat(locality, 'f', 2, 64), func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				cfg := geocache.DefaultConfig()
				cfg.Requests = 60_000
				cfg.TemporalLocality = locality
				sim, err := geocache.NewSimulator(res.Catalog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.SetPredictions(preds); err != nil {
					b.Fatal(err)
				}
				tp, err := sim.Run(geocache.PolicyTagPush, 64)
				if err != nil {
					b.Fatal(err)
				}
				lru, err := sim.Run(geocache.PolicyLRU, 64)
				if err != nil {
					b.Fatal(err)
				}
				gap = tp.HitRatio - lru.HitRatio
			}
			b.ReportMetric(gap, "tagpush-minus-lru")
		})
	}
}

// BenchmarkE7Placement evaluates replica placement (the storage-layer
// extension the paper's intro motivates): mean viewer-to-replica
// distance per strategy at 3 replicas/video.
func BenchmarkE7Placement(b *testing.B) {
	res := benchFixture(b)
	preds := benchPredictions(b)
	ev, err := placement.NewEvaluator(res.Catalog, placement.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := ev.SetPredictions(preds); err != nil {
		b.Fatal(err)
	}
	for _, s := range []placement.Strategy{
		placement.StrategyHome, placement.StrategyPopular,
		placement.StrategyPredicted, placement.StrategyOracle,
	} {
		b.Run(s.String(), func(b *testing.B) {
			var r placement.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = ev.Evaluate(s)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.MeanKm, "mean-km")
			b.ReportMetric(r.LocalFraction, "local-fraction")
		})
	}
}

// BenchmarkAggregation measures the Eq. 3 build over the bench corpus.
func BenchmarkAggregation(b *testing.B) {
	res := benchFixture(b)
	for i := 0; i < b.N; i++ {
		if _, err := tagviews.Build(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt); err != nil {
			b.Fatal(err)
		}
	}
}

// serveFixture builds the HTTP serving stack (profile store + fully
// middleware-wrapped handler) over the shared bench fixture once.
var (
	serveOnce sync.Once
	serveSrv  *server.Server
	serveErr  error
)

func serveFixture(b *testing.B) *server.Server {
	b.Helper()
	res := benchFixture(b)
	serveOnce.Do(func() {
		snap, err := profilestore.Build(res.Analysis)
		if err != nil {
			serveErr = err
			return
		}
		store, err := profilestore.NewStore(snap)
		if err != nil {
			serveErr = err
			return
		}
		serveSrv, serveErr = server.New(server.DefaultConfig(), store)
	})
	if serveErr != nil {
		b.Fatal(serveErr)
	}
	return serveSrv
}

// BenchmarkServePredict measures /v1/predict through the full handler
// stack (middleware, JSON decode, prediction, JSON encode): one video
// per request vs a 32-video batch. The reported predictions/sec metric
// is the acceptance quantity — batching amortizes the per-request HTTP
// and JSON overhead, so batch-32 must beat single.
func BenchmarkServePredict(b *testing.B) {
	srv := serveFixture(b)
	res := benchFixture(b)
	cat := res.Catalog
	var tagSets [][]string
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			tagSets = append(tagSets, names)
		}
	}
	makeBody := func(batch, seq int) []byte {
		req := server.PredictRequest{Weighting: "idf", Top: 3}
		if batch == 1 {
			req.Tags = tagSets[seq%len(tagSets)]
		} else {
			req.Batch = make([]server.PredictItem, batch)
			for j := range req.Batch {
				req.Batch[j] = server.PredictItem{Tags: tagSets[(seq*batch+j)%len(tagSets)]}
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	for _, batch := range []int{1, 32} {
		name := "single"
		if batch > 1 {
			name = benchName("batch", batch)
		}
		b.Run(name, func(b *testing.B) {
			h := srv.Handler()
			// Pre-marshal a rotating set of request bodies so only the
			// server side (ServeHTTP) is timed, not the client encode.
			bodies := make([][]byte, 256)
			for i := range bodies {
				bodies[i] = makeBody(batch, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i%len(bodies)]))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			preds := float64(b.N * batch)
			b.ReportMetric(preds/b.Elapsed().Seconds(), "preds/sec")
		})
	}
}

// BenchmarkIngestFold measures one full epoch of the streaming write
// path — accumulate a batch of view events, drain the deltas,
// Rebuild the snapshot copy-on-write, swap it in — at two touch widths:
// a hot head of 100 tags and the whole vocabulary. The copy-on-write
// contract says cost scales with touched tags plus O(tags) bookkeeping,
// so the two runs bound a production fold's latency from both sides.
func BenchmarkIngestFold(b *testing.B) {
	res := benchFixture(b)
	base, err := profilestore.Build(res.Analysis)
	if err != nil {
		b.Fatal(err)
	}
	names := res.Analysis.TagNames()
	fixture := func(testing.TB) (*profilestore.Snapshot, []string) { return base, names }
	// run times add → drain → install, where install is what puts the
	// drained deltas into the store it is handed. It asks for its base
	// only once -bench has selected it.
	type installFunc func([]profilestore.TagDelta, int) error
	run := func(name string, fixture func(testing.TB) (*profilestore.Snapshot, []string), touch int, installer func(*profilestore.Store) (installFunc, error)) {
		b.Run(benchName(name, touch), func(b *testing.B) {
			base, names := fixture(b)
			store, err := profilestore.NewStore(base)
			if err != nil {
				b.Fatal(err)
			}
			install, err := installer(store)
			if err != nil {
				b.Fatal(err)
			}
			acc, err := ingest.NewAccumulator(store, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			nC := base.World().N()
			events := make([]ingest.Event, touch)
			for i := range events {
				events[i] = ingest.Event{
					Video:   "bench-" + strconv.Itoa(i),
					Tags:    []string{names[i%len(names)]},
					Country: geo.CountryID(i % nC),
					Views:   1,
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := acc.Add(events); err != nil {
					b.Fatal(err)
				}
				deltas, n, _, _ := acc.Drain()
				if err := install(deltas, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(touch)/b.Elapsed().Seconds(), "events/sec")
		})
	}
	// Rebuild + Swap alone: the store's share of a fold.
	rebuild := func(store *profilestore.Store) (installFunc, error) {
		return func(deltas []profilestore.TagDelta, n int) error {
			next, err := profilestore.Rebuild(store.Load(), deltas, n)
			if err != nil {
				return err
			}
			_, err = store.Swap(next)
			return err
		}, nil
	}
	for _, touch := range []int{100, len(names)} {
		run("touch", fixture, touch, rebuild)
		// The fold a standalone node runs: Server.ApplyDeltas with the
		// fixture's catalog set, so whatever an install does beyond the
		// swap is on the clock.
		run("node-touch", fixture, touch, func(store *profilestore.Store) (installFunc, error) {
			srv, err := server.New(server.DefaultConfig(), store)
			if err != nil {
				return nil, err
			}
			if err := srv.SetCatalog(res.Catalog.Served()); err != nil {
				return nil, err
			}
			return func(deltas []profilestore.TagDelta, n int) error {
				return srv.ApplyDeltas(deltas, n, tagviews.WeightIDF)
			}, nil
		})
	}
	// The same hot-100 fold over the paper's vocabulary.
	run("paper-touch", func(tb testing.TB) (*profilestore.Snapshot, []string) {
		paper := paperFixture(tb)
		hot := make([]string, 100)
		for i, p := range paper.Export().Profiles[:len(hot)] { // a build's ids are in name order
			hot[i] = p.Name
		}
		return paper, hot
	}, 100, rebuild)
}

// BenchmarkIngestAdd times Accumulator.Add under concurrent callers, as a
// node's ingest handlers call it: batches of 4 events of 5 tags each over
// the fixture's vocabulary, from every goroutine RunParallel starts, with
// a Drain every 4096 adds so the deltas stay the size a fold interval
// leaves them. Read it at -cpu 1,2: what the second row adds over the
// first is what callers pay for sharing the accumulator.
func BenchmarkIngestAdd(b *testing.B) {
	res := benchFixture(b)
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		b.Fatal(err)
	}
	names := res.Analysis.TagNames()
	nC := snap.World().N()
	const eventsPerAdd, tagsPerEvent, drainEvery = 4, 5, 4096
	batches := make([][]ingest.Event, 1024)
	for k := range batches {
		batches[k] = make([]ingest.Event, eventsPerAdd)
		for i := range batches[k] {
			e := &batches[k][i]
			n := (k*eventsPerAdd + i) * tagsPerEvent
			e.Tags = make([]string, tagsPerEvent)
			for j := range e.Tags {
				e.Tags[j] = names[(n+j)*7%len(names)]
			}
			e.Country = geo.CountryID(n % nC)
			e.Views = 1
		}
	}
	b.Run("parallel", func(b *testing.B) {
		store, err := profilestore.NewStore(snap)
		if err != nil {
			b.Fatal(err)
		}
		acc, err := ingest.NewAccumulator(store, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		var callers, adds atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Each caller starts at its own place in the batch cycle.
			for k := int(callers.Add(1)) * 131; pb.Next(); k++ {
				if err := acc.Add(batches[k%len(batches)]); err != nil {
					b.Error(err)
					return
				}
				if adds.Add(1)%drainEvery == 0 {
					acc.Drain()
				}
			}
		})
	})
}

// paperVideos is the paper's corpus size, the vocabulary at which a
// fold's fixed per-tag costs show (ROADMAP item 17).
const paperVideos = 691000

var (
	paperOnce sync.Once
	paperSnap *profilestore.Snapshot
	paperErr  error
)

// paperFixture is a standalone node's snapshot at the paper's corpus
// size, from the boot cmd/serve -videos 691000 runs (about 8 s and
// 400 MB, built once per process; nothing is downloaded).
func paperFixture(tb testing.TB) *profilestore.Snapshot {
	tb.Helper()
	paperOnce.Do(func() {
		var boot *pipeline.Boot
		if boot, paperErr = pipeline.BootSynthetic(paperVideos, 20110301, alexa.DefaultConfig(), nil, false); paperErr != nil {
			return
		}
		paperSnap, paperErr = profilestore.BuildAggregate(boot.Aggregate)
	})
	if paperErr != nil {
		tb.Fatalf("paper fixture: %v", paperErr)
	}
	return paperSnap
}

// BenchmarkTopProfiles times the tag listing /v1/tags serves, at its
// default k and at the whole vocabulary, on the benchmark's fixture.
func BenchmarkTopProfiles(b *testing.B) {
	snap, err := profilestore.Build(benchFixture(b).Analysis)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{20, snap.NumTags()} {
		b.Run(benchName("k", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(snap.TopProfiles(k)) != k {
					b.Fatal("short listing")
				}
			}
		})
	}
}

// BenchmarkBoot times a daemon's whole boot over the benchmark's catalog,
// as cmd/serve runs it — the streaming pass, then the build adopting its
// sums — for shard 0 of 3, for a standalone node, which also collects the
// served catalog, and for a standalone node that recovered a checkpoint,
// whose pass collects the served catalog and admits no tag. Read it with
// -benchmem and -cpu 1,2: the generator is most of the pass and runs as
// two stages, so two cores show what the stages overlap and one core what
// the draws themselves cost — which must be no more than before the split
// (EXPERIMENTS.md "Boot at the speed of the cores"). cpu-ms/op is the
// process's CPU time per boot, both stages included, and cores/op that CPU
// over the boot's wall time: how many cores the stages kept busy together.
// At -cpu 2 ns/op is the slower stage's time plus what the stages do not
// overlap, so moving work between the stages shows in ns/op and cores/op
// at equal cpu-ms/op — and three shards booting on two cores pay CPU, not
// wall time. fields/op is how many videos' view fields the pass drew: the
// ones it reads (EXPERIMENTS.md "A boot draws the fields it reads").
func BenchmarkBoot(b *testing.B) {
	rg, err := ring.New(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		owns   func(string) bool
		served bool
	}{
		{"shard", func(tag string) bool { return rg.Owns(tag, 0) }, false},
		{"node", nil, true},
		{"recovered-node", func(string) bool { return false }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			fields := 0
			cpu0, cpuOK := processCPU()
			for i := 0; i < b.N; i++ {
				boot, err := pipeline.BootSynthetic(bootPeakVideos, bootPeakSeed, alexa.DefaultConfig(), c.owns, c.served)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := profilestore.BuildAggregate(boot.Aggregate); err != nil {
					b.Fatal(err)
				}
				fields += boot.Fields
			}
			if cpu1, ok := processCPU(); cpuOK && ok {
				b.ReportMetric(float64(cpu1-cpu0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
				b.ReportMetric(float64(cpu1-cpu0)/float64(b.Elapsed()), "cores/op")
			}
			b.ReportMetric(float64(fields)/float64(b.N), "fields/op")
		})
	}
}

// BenchmarkPreload times one /v1/preload advisory of 64 slots through
// Server.Handler() over the benchmark's catalog, per push policy, cycling
// through every country. tag-push is the one that reads the profiles: a
// column of predictions computed per request.
func BenchmarkPreload(b *testing.B) {
	srv := nodeServer(b, true)
	snap, _ := nodeFixture(b)
	h := srv.Handler()
	codes := snap.World().Codes()
	for _, policy := range []string{"tag-push", "pop-push"} {
		bodies := make([][]byte, len(codes))
		for i, code := range codes {
			bodies[i] = []byte(fmt.Sprintf(`{"country":%q,"policy":%q,"slots":64}`, code, policy))
		}
		b.Run(policy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/preload", bytes.NewReader(bodies[i%len(bodies)])))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkClusterGatewayPredict measures /v1/predict through the
// cluster edge: a gateway scatter-gathering three in-process shard
// daemons over real loopback HTTP, alongside BenchmarkServePredict's
// single-node numbers (same request shapes, same preds/sec metric).
// The parallel driver reflects the tier's design point — concurrent
// clients amortize the per-request fan-out latency, so aggregate
// throughput tracks shard capacity rather than one request's 3-way
// round trip. CI uploads both benches as the gateway-vs-single-node
// throughput artifact.
//
// Those variants (single, batch 4, batch 32) cycle 256 bodies, so after
// the first pass every row they need is cached. The rows/ variants
// (batch 4, one driver; read them with -benchmem) put a number on each
// state of the row cache instead: warm (every row held; warm-b32 is the
// same at batch 32, where the per-item work dominates), cold (a gateway
// that holds none of the request's rows, so the request fetches every one
// itself: the all-miss cost, three legs — a fresh gateway per request,
// built and dialled with the timer stopped, because rows a fold retired
// no longer stay missing: the refresh pass re-reads them, and racing it
// would not be a number), epoch-churn (32 bodies cycling while one shard
// folds every 64 requests, round-robin: the fold and the health
// observation run with the timer stopped, the refresh pass that
// observation starts runs beside the timed requests, as in production)
// and refresh (every shard folds, then the timed part is the observation
// plus the three passes it starts, waited out: ns per refreshed row,
// rows per frame, and allocations per frame net of the observation's
// own — the in-process shards' handler allocations are in it).
func BenchmarkClusterGatewayPredict(b *testing.B) {
	res := benchFixture(b)
	const shards = 3
	rg, err := ring.New(shards, 1)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]string, shards)
	foldShard := make([]func(), shards)
	for i := 0; i < shards; i++ {
		i := i
		snap, err := profilestore.BuildOwned(res.Analysis, func(name string) bool { return rg.Owner(name) == i })
		if err != nil {
			b.Fatal(err)
		}
		store, err := profilestore.NewStore(snap)
		if err != nil {
			b.Fatal(err)
		}
		cfg := server.DefaultConfig()
		cfg.ShardIndex = i
		cfg.ShardCount = shards
		srv, err := server.New(cfg, store)
		if err != nil {
			b.Fatal(err)
		}
		// No recovery phase in a bench shard: mark ready immediately or
		// Sync (which refuses unready shards since the durable tier)
		// never succeeds.
		srv.SetReady()
		// The write path is attached but nothing folds unless a rows/
		// variant asks (foldShard): an idle accumulator costs reads nothing.
		acc, err := ingest.NewAccumulator(store, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.EnableIngest(acc, time.Hour); err != nil {
			b.Fatal(err)
		}
		comp, err := ingest.NewCompactor(acc, time.Hour, func(d []profilestore.TagDelta, n int) error {
			return srv.ApplyDeltas(d, n, tagviews.WeightIDF)
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		uploads := 0
		foldShard[i] = func() {
			uploads++
			var body bincodec.Writer
			ingest.AppendBatch(&body, nil, []string{fmt.Sprintf("bench-fold-%d", uploads)})
			req := httptest.NewRequest(http.MethodPost, server.InternalIngestPath, bytes.NewReader(body.B))
			req.Header.Set("Content-Type", server.IngestContentType)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("shard ingest: %d: %s", rec.Code, rec.Body)
			}
			if folded, err := comp.FoldNow(); err != nil || !folded {
				b.Fatalf("fold: %v %v", folded, err)
			}
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		targets[i] = ts.URL
	}
	cat := res.Catalog
	var tagSets [][]string
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			tagSets = append(tagSets, names)
		}
	}
	makeBody := func(batch, seq int) []byte {
		req := server.PredictRequest{Weighting: "idf", Top: 3}
		if batch == 1 {
			req.Tags = tagSets[seq%len(tagSets)]
		} else {
			req.Batch = make([]server.PredictItem, batch)
			for j := range req.Batch {
				req.Batch[j] = server.PredictItem{Tags: tagSets[(seq*batch+j)%len(tagSets)]}
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	newGateway := func() *cluster.Gateway {
		g, err := cluster.NewGateway(cluster.DefaultGatewayConfig(), targets)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Sync(context.Background()); err != nil {
			b.Fatal(err)
		}
		return g
	}
	loaded := newGateway()
	defer loaded.Close()
	// The "wire-binary/" prefix predates the single wire; it stays so
	// these rows line up with earlier runs.
	for _, batch := range []int{1, 4, 32} {
		name := "wire-binary/single"
		if batch > 1 {
			name = "wire-binary/" + benchName("batch", batch)
		}
		b.Run(name, func(b *testing.B) {
			h := loaded.Handler()
			bodies := make([][]byte, 256)
			for i := range bodies {
				bodies[i] = makeBody(batch, i)
			}
			var seq atomic.Int64
			// 32 closed-loop drivers regardless of GOMAXPROCS: the
			// tier's design point is many concurrent clients, and on
			// the 1-vCPU CI runner RunParallel would otherwise drive
			// one worker.
			b.SetParallelism(max(1, 32/runtime.GOMAXPROCS(0)))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(seq.Add(1))
					req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i%len(bodies)]))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
					}
				}
			})
			preds := float64(b.N * batch)
			b.ReportMetric(preds/b.Elapsed().Seconds(), "preds/sec")
		})
	}

	// The rows/ variants get a gateway of their own, so what they measure
	// is a cache holding their 32 bodies' rows and nothing else.
	g := newGateway()
	defer func() { g.Close() }()
	bodies := make([][]byte, 32)
	for i := range bodies {
		bodies[i] = makeBody(4, i)
	}
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	predict := func(i int) { post(bodies[i%len(bodies)]) }
	// dial asks for one tag nobody knows of every shard: the streams are
	// up afterwards and none of the bodies' rows is held.
	var dialTags []string
	for s, i := 0, 0; s < shards; i++ {
		if tag := fmt.Sprintf("zz-dial-%d", i); rg.Owner(tag) == s {
			dialTags = append(dialTags, tag)
			s++
		}
	}
	dial, err := json.Marshal(server.PredictRequest{Tags: dialTags})
	if err != nil {
		b.Fatal(err)
	}
	// fold moves the given shards' epochs and has the gateway see it.
	fold := func(b *testing.B, which ...int) {
		b.StopTimer()
		for _, s := range which {
			foldShard[s]()
		}
		g.RefreshHealth(context.Background())
		b.StartTimer()
	}
	for _, v := range []struct {
		name   string
		before func(b *testing.B, i int)
	}{
		{"warm", func(*testing.B, int) {}},
		{"cold", func(b *testing.B, _ int) {
			b.StopTimer()
			g.Close()
			g = newGateway()
			post(dial)
			b.StartTimer()
		}},
		{"epoch-churn", func(b *testing.B, i int) {
			if i%64 == 0 {
				fold(b, i/64%shards)
			}
		}},
	} {
		b.Run("rows/"+v.name, func(b *testing.B) {
			for i := range bodies {
				predict(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.before(b, i)
				predict(i)
			}
			b.ReportMetric(float64(b.N*4)/b.Elapsed().Seconds(), "preds/sec")
		})
	}
	b.Run("rows/refresh", func(b *testing.B) {
		refreshed := func() (rows, legs int64) {
			var stats struct {
				Cluster cluster.ClusterStats `json:"cluster"`
			}
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
			if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
				b.Fatal(err)
			}
			return stats.Cluster.RowCache.RefreshRows, stats.Cluster.RowCache.RefreshLegs
		}
		// observe is what the timed part does; its mallocs are counted
		// process-wide, so the in-process shards' are in them.
		observe := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.StartTimer()
			g.RefreshHealth(context.Background())
			g.WaitRowRefresh()
			b.StopTimer()
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		b.StopTimer()
		for i := range bodies {
			predict(i)
		}
		g.WaitRowRefresh()
		probe := observe() // nothing folded: the three health probes alone
		rows0, legs0 := refreshed()
		var mallocs uint64
		b.ResetTimer()
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			for s := range foldShard {
				foldShard[s]()
			}
			mallocs += observe() - probe
			// Every row is asked for again before the next fold, so none
			// ages out of the refresh as idle.
			for i := range bodies {
				predict(i)
			}
		}
		rows, legs := refreshed()
		rows, legs = rows-rows0, legs-legs0
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		b.ReportMetric(float64(rows)/float64(legs), "rows/frame")
		b.ReportMetric(float64(mallocs)/float64(legs), "allocs/frame")
	})
	// warm-b32 runs last, so the rows it adds to the cache change no row
	// above.
	b.Run("rows/warm-b32", func(b *testing.B) {
		bodies := make([][]byte, 32)
		for i := range bodies {
			bodies[i] = makeBody(32, i)
		}
		for _, body := range bodies {
			post(body)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(bodies[i%len(bodies)])
		}
		b.ReportMetric(float64(b.N*32)/b.Elapsed().Seconds(), "preds/sec")
	})
}

// BenchmarkInternalCodec measures the gateway↔shard codec in isolation
// at the fan-out's realistic shape: a 32-item batch of catalog tag
// lists and world-sized float64 reply vectors.
func BenchmarkInternalCodec(b *testing.B) {
	res := benchFixture(b)
	nC := res.World.N()
	cat := res.Catalog
	var items [][]string
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			items = append(items, names)
		}
		if len(items) == 32 {
			break
		}
	}
	wsums := make([]float64, len(items))
	vec := make([]float64, nC)
	for c := range vec {
		vec[c] = 1 / float64(c+1)
	}
	for i := range wsums {
		wsums[i] = float64(i%7) + 0.5
	}

	b.Run("request-encode", func(b *testing.B) {
		buf := server.AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = server.AppendPredictRequest(buf[:0], items, tagviews.WeightIDF, false)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("request-decode", func(b *testing.B) {
		frame := server.AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := server.DecodePredictRequest(frame); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(frame)))
	})

	encodeResp := func(enc *server.PredictWireEncoder) []byte {
		enc.Begin(tagviews.WeightIDF, 10000, 3, nC, len(items), false)
		for i := range items {
			enc.Item(wsums[i], vec)
		}
		return enc.Finish()
	}
	b.Run("response-encode", func(b *testing.B) {
		var enc server.PredictWireEncoder
		frame := encodeResp(&enc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encodeResp(&enc)
		}
		b.SetBytes(int64(len(frame)))
	})
	b.Run("response-decode", func(b *testing.B) {
		var enc server.PredictWireEncoder
		frame := encodeResp(&enc)
		var pp server.PredictPartials
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := server.DecodePredictResponse(frame, &pp, 64, 1<<12); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(frame)))
	})

	// The ingest leg: one shard's share of a batch, as the gateway
	// writes it and the shard reads it.
	for _, n := range []int{4, 32} {
		events := ingestBenchEvents(b, n)
		b.Run(fmt.Sprintf("ingest-encode/b%d", n), func(b *testing.B) {
			var w bincodec.Writer
			for i := 0; i < b.N; i++ {
				w = bincodec.Writer{} // a fresh body per leg, as the gateway writes it
				ingest.AppendBatch(&w, events, nil)
			}
			b.SetBytes(int64(len(w.B)))
		})
		b.Run(fmt.Sprintf("ingest-decode/b%d", n), func(b *testing.B) {
			w := bincodec.Writer{}
			ingest.AppendBatch(&w, events, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := bincodec.NewReader(w.B)
				if ingest.ReadBatch(&r, 1024); r.End() != nil {
					b.Fatal(r.Err())
				}
			}
			b.SetBytes(int64(len(w.B)))
		})
	}
}

// ingestBenchEvents returns n view events over catalog videos and their
// tag lists, cycling the fixture, one in twenty an upload.
func ingestBenchEvents(b *testing.B, n int) []ingest.Event {
	res := benchFixture(b)
	cat := res.Catalog
	var events []ingest.Event
	for i := 0; len(events) < n; i = (i + 1) % len(cat.Videos) {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			events = append(events, ingest.Event{Video: cat.Videos[i].ID, Tags: names,
				Country: geo.CountryID(i % res.World.N()), Views: float64(1 + i%50), Upload: i%20 == 0})
		}
	}
	return events
}

// edgeBenchItems returns n catalog tag lists, cycling the fixture.
func edgeBenchItems(b *testing.B, n int) []server.PredictItem {
	cat := benchFixture(b).Catalog
	var items []server.PredictItem
	for i := 0; len(items) < n; i = (i + 1) % len(cat.Videos) {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			items = append(items, server.PredictItem{Tags: names})
		}
	}
	return items
}

// BenchmarkEdgeDecode reads a /v1/predict body the way the handlers do,
// through the edge codec and through the strict encoding/json decode it
// declines to — the per-layer ratio behind the codec, without daemons.
// The -declined rows price the other side of the bargain: a body whose
// LAST tag is escaped ("r&b" as json.Marshal writes it), so the codec
// scans all of it before handing it to encoding/json.
func BenchmarkEdgeDecode(b *testing.B) {
	for _, n := range []int{4, 32} {
		items := edgeBenchItems(b, n)
		escaped := append([]server.PredictItem(nil), items...)
		last := &escaped[n-1]
		last.Tags = append(append([]string(nil), last.Tags...), "r&b")
		w := &nullResponseWriter{h: make(http.Header)}
		for _, v := range []struct {
			suffix   string
			items    []server.PredictItem
			declines bool
		}{{"", items, false}, {"-declined", escaped, true}} {
			body, err := json.Marshal(&server.PredictRequest{Weighting: "idf", Top: 3, Batch: v.items})
			if err != nil {
				b.Fatal(err)
			}
			metrics := server.NewMetrics()
			rd := bytes.NewReader(body)
			r := httptest.NewRequest(http.MethodPost, "/v1/predict", rd)
			decoded := int64(0)
			run := func(name string, decode func(*server.PredictRequest) bool) {
				b.Run(fmt.Sprintf("%s%s-b%d", name, v.suffix, n), func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(int64(len(body)))
					for i := 0; i < b.N; i++ {
						rd.Reset(body)
						r.Body = io.NopCloser(rd)
						var req server.PredictRequest
						if !decode(&req) || len(req.Batch) != n {
							b.Fatal("decode failed")
						}
					}
				})
			}
			run("codec", func(req *server.PredictRequest) bool {
				decoded++
				return server.DecodePredictBody(w, r, &metrics.Predict, server.DefaultConfig().MaxBatch, req)
			})
			run("encoding-json", func(req *server.PredictRequest) bool { return server.DecodeBody(w, r, req) })
			// A -bench filter may skip the codec row; its decodes are the check's base.
			if got := metrics.Predict.DecodeGeneral.Load(); decoded > 0 && ((got != 0) != v.declines || (v.declines && got != decoded)) {
				b.Fatalf("the codec declined %d of %d %q bodies", got, decoded, v.suffix)
			}
		}
	}
}

// BenchmarkEdgeEncode writes a /v1/predict reply through the edge codec
// and through WriteJSON, top-3 per item as the benchmark asks for.
func BenchmarkEdgeEncode(b *testing.B) {
	for _, n := range []int{4, 32} {
		resp := server.PredictResponse{Weighting: "idf", Results: make([]server.PredictResult, n)}
		for i := range resp.Results {
			resp.Results[i] = server.PredictResult{Known: true, Top: []server.CountryShare{
				{Country: "BR", Share: 0.5912345678901234 / float64(i+1)}, {Country: "PT", Share: 0.0523456789012345}, {Country: "US", Share: 3.1e-7}}}
		}
		w := &nullResponseWriter{h: make(http.Header)}
		run := func(name string, encode func()) {
			b.Run(fmt.Sprintf("%s-b%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					encode()
				}
			})
		}
		run("codec", func() { server.WritePredictResponse(w, &resp) })
		run("encoding-json", func() { server.WriteJSON(w, http.StatusOK, &resp) })
	}
}
