package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"viewstags/internal/server"
	"viewstags/internal/synth"
	"viewstags/internal/xrand"
)

// catalogItem is one tagged video as the traffic generator sees it.
type catalogItem struct {
	id   string
	tags []string
}

// workload drives the open-loop traffic schedule against one base URL
// (the gateway the engine booted, or the daemon it was pointed at):
// arrivals are paced by the phase's rate regardless of response
// latency — a slow cluster faces a growing backlog, not a politely
// waiting client — bounded only by the outstanding-request cap, whose
// overflow is counted as drops, not silently absorbed.
type workload struct {
	sc      *Spec
	base    string
	client  *http.Client
	items   []catalogItem
	codes   []string
	codeSet map[string]bool
	traffic []float64

	reads, writes *Collector
	phaseReads    []*Collector // one per phase, aligned with sc.Phases
	phaseWrites   []*Collector

	sem   chan struct{}
	wg    sync.WaitGroup
	churn int // fresh-video counter for catalog churn
}

// newWorkload regenerates the daemon's synthetic catalog (same
// videos/seed ⇒ same ids and tag sets, so the tags asked about are tags
// the daemon trained on) and prepares collectors: run-wide ones that get their warmup cutoff
// pinned at traffic start (see start), plus one per phase for the
// trajectory.
func newWorkload(sc *Spec, base string) (*workload, error) {
	cfg := synth.DefaultConfig(sc.Videos)
	cfg.Seed = sc.Seed
	cat, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var items []catalogItem
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			items = append(items, catalogItem{id: cat.Videos[i].ID, tags: names})
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("scenario: catalog has no tagged videos")
	}
	maxOut := sc.MaxOutstanding
	if maxOut <= 0 {
		maxOut = 256
	}
	w := &workload{
		sc:      sc,
		base:    base,
		items:   items,
		codes:   cat.World.Codes(),
		traffic: cat.World.Traffic(),
		sem:     make(chan struct{}, maxOut),
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        maxOut * 2,
				MaxIdleConnsPerHost: maxOut * 2,
			},
		},
	}
	w.codeSet = make(map[string]bool, len(w.codes))
	for _, c := range w.codes {
		w.codeSet[c] = true
	}
	for i := range sc.Phases {
		if r := sc.Phases[i].Region; r != "" && !w.codeSet[r] {
			return nil, fmt.Errorf("scenario: phase %q region %q is not in the country table", sc.Phases[i].Name, r)
		}
	}
	w.reads = newCollector(time.Time{})
	w.writes = newCollector(time.Time{})
	for range sc.Phases {
		w.phaseReads = append(w.phaseReads, newCollector(time.Time{}))
		w.phaseWrites = append(w.phaseWrites, newCollector(time.Time{}))
	}
	return w, nil
}

// segment is one stretch of the schedule: warmup replays phase 0's
// shape unscored (index -1), then each phase runs scored.
type segment struct {
	phase *Phase
	index int
	dur   time.Duration
}

func (w *workload) schedule() []segment {
	var segs []segment
	if w.sc.Warmup > 0 {
		segs = append(segs, segment{phase: &w.sc.Phases[0], index: -1, dur: w.sc.Warmup.D()})
	}
	for i := range w.sc.Phases {
		segs = append(segs, segment{phase: &w.sc.Phases[i], index: i, dur: w.sc.Phases[i].Duration.D()})
	}
	return segs
}

// phaseShape is the per-segment draw state, rebuilt at each boundary.
type phaseShape struct {
	p      *Phase
	zipf   *xrand.Zipf
	viewer *xrand.Categorical
	mix    *xrand.Source
	views  *xrand.Source
	hot    []int // flash-crowd hot set (video indexes)
	region string
}

func (w *workload) shapeFor(seg segment, src *xrand.Source) (*phaseShape, error) {
	p := seg.phase
	zs := p.Zipf
	if zs <= 0 {
		zs = 1.1
	}
	label := fmt.Sprintf("phase-%d", seg.index)
	sh := &phaseShape{
		p:      p,
		zipf:   xrand.NewZipf(src.Fork(label+"/zipf"), zs, len(w.items)),
		viewer: xrand.NewCategorical(src.Fork(label+"/viewers"), w.traffic),
		mix:    src.Fork(label + "/mix"),
		views:  src.Fork(label + "/views"),
	}
	if p.HotTags > 0 {
		pick := src.Fork(label + "/hot")
		seen := make(map[int]bool, p.HotTags)
		for len(sh.hot) < p.HotTags && len(sh.hot) < len(w.items) {
			v := pick.Intn(len(w.items))
			if !seen[v] {
				seen[v] = true
				sh.hot = append(sh.hot, v)
			}
		}
	}
	if p.Region != "" {
		if !w.codeSet[p.Region] {
			return nil, fmt.Errorf("scenario: phase %q region %q is not in the country table", p.Name, p.Region)
		}
		sh.region = p.Region
	}
	return sh, nil
}

// drawVideo picks the next video index: hot set with HotFrac, base
// Zipf otherwise.
func (sh *phaseShape) drawVideo() int {
	if len(sh.hot) > 0 && sh.mix.Bernoulli(sh.p.HotFrac) {
		return sh.hot[sh.mix.Intn(len(sh.hot))]
	}
	return sh.zipf.Rank()
}

// drawCountry biases half the events toward the phase region when one
// is set; the rest follow the global traffic prior.
func (sh *phaseShape) drawCountry(w *workload) string {
	if sh.region != "" && sh.mix.Bernoulli(0.5) {
		return sh.region
	}
	return w.codes[sh.viewer.Draw()]
}

// start pins the warmup cutoff to the actual traffic start.
func (w *workload) start(trafficStart time.Time) {
	cutoff := trafficStart.Add(w.sc.Warmup.D())
	w.reads.SetCutoff(cutoff)
	w.writes.SetCutoff(cutoff)
}

// run executes the whole schedule. It returns once every phase has
// elapsed AND every outstanding request has completed, so collectors
// are quiescent when read. ctx cancellation (engine failure) aborts
// pacing early.
func (w *workload) run(ctx context.Context) {
	for _, seg := range w.schedule() {
		if ctx.Err() != nil {
			break
		}
		w.runSegment(ctx, seg)
	}
	w.wg.Wait()
}

func (w *workload) runSegment(ctx context.Context, seg segment) {
	// Phase shaping reseeds deterministically per segment: same spec ⇒
	// same draws, independent of response timing.
	src := xrand.NewSource(w.sc.Seed + uint64(seg.index) + 2)
	sh, err := w.shapeFor(seg, src)
	if err != nil {
		// Region validation failures are caught by Run's preflight; a
		// failure here means the spec mutated mid-run. Don't pace a
		// phase we can't shape.
		return
	}
	interval := time.Duration(float64(time.Second) / seg.phase.Rate)
	deadline := time.Now().Add(seg.dur)
	next := time.Now()
	for {
		now := time.Now()
		if now.After(deadline) || ctx.Err() != nil {
			return
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			continue
		}
		next = next.Add(interval)
		w.dispatch(ctx, sh, seg.index)
	}
}

// dispatch issues one arrival: build the request body on the pacer
// goroutine (single-threaded randomness, deterministic draws), then
// hand the HTTP round trip to a worker slot. A full slot table means
// the cluster is `MaxOutstanding` requests behind an open-loop client:
// that arrival is dropped and charged to the error budget.
func (w *workload) dispatch(ctx context.Context, sh *phaseShape, phaseIdx int) {
	batch := sh.p.Batch
	if batch <= 0 {
		batch = 1
	}
	isWrite := sh.mix.Bernoulli(sh.p.IngestFrac)
	coll, phaseColl := w.reads, w.phaseColl(phaseIdx, false)
	var body bytes.Buffer
	if isWrite {
		coll, phaseColl = w.writes, w.phaseColl(phaseIdx, true)
		req := server.IngestRequest{Events: make([]server.IngestEvent, batch)}
		for i := range req.Events {
			v := sh.drawVideo()
			ev := server.IngestEvent{
				Video:   w.items[v].id,
				Tags:    w.items[v].tags,
				Country: sh.drawCountry(w),
				Views:   float64(1 + sh.views.Intn(50)),
			}
			if sh.mix.Bernoulli(sh.p.ChurnFrac) {
				// Catalog churn: a previously-unseen video arrives,
				// announced as an upload. Fresh ids are unique by
				// construction, so no cross-worker dedup is needed.
				w.churn++
				ev.Video = fmt.Sprintf("churn-%08d", w.churn)
				ev.Upload = true
			}
			req.Events[i] = ev
		}
		if err := json.NewEncoder(&body).Encode(&req); err != nil {
			w.observeBoth(coll, phaseColl, 0, 0, 0, true, false)
			return
		}
	} else {
		req := server.PredictRequest{Weighting: "idf", Top: 3}
		if batch == 1 {
			req.Tags = w.items[sh.drawVideo()].tags
		} else {
			req.Batch = make([]server.PredictItem, batch)
			for i := range req.Batch {
				req.Batch[i] = server.PredictItem{Tags: w.items[sh.drawVideo()].tags}
			}
		}
		if err := json.NewEncoder(&body).Encode(&req); err != nil {
			w.observeBoth(coll, phaseColl, 0, 0, 0, true, false)
			return
		}
	}
	select {
	case w.sem <- struct{}{}:
	default:
		coll.Drop()
		if phaseColl != nil {
			phaseColl.Drop()
		}
		return
	}
	w.wg.Add(1)
	go func(payload []byte) {
		defer func() { <-w.sem; w.wg.Done() }()
		var items, fallback int64
		var shed bool
		var err error
		start := time.Now()
		if isWrite {
			items, shed, err = w.doIngest(ctx, payload)
		} else {
			items, fallback, shed, err = w.doPredict(ctx, payload)
		}
		w.observeBoth(coll, phaseColl, time.Since(start), items, fallback, err != nil, shed)
	}(append([]byte(nil), body.Bytes()...))
}

func (w *workload) phaseColl(idx int, write bool) *Collector {
	if idx < 0 {
		return nil // warmup segment: unscored everywhere
	}
	if write {
		return w.phaseWrites[idx]
	}
	return w.phaseReads[idx]
}

func (w *workload) observeBoth(coll, phaseColl *Collector, lat time.Duration, items, fallback int64, failed, shed bool) {
	now := time.Now()
	coll.Observe(lat, items, fallback, failed, shed, now)
	if phaseColl != nil {
		phaseColl.Observe(lat, items, fallback, failed, shed, now)
	}
}

// doPredict round-trips one predict; 503 is shed (health shedding or
// the limiter), other non-200s are errors.
func (w *workload) doPredict(ctx context.Context, payload []byte) (items, fallback int64, shed bool, err error) {
	resp, err := w.post(ctx, w.base+"/v1/predict", payload)
	if err != nil {
		return 0, 0, false, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, 0, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, 0, false, fmt.Errorf("status %d", resp.StatusCode)
	}
	var pr server.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return 0, 0, false, err
	}
	if pr.Result != nil {
		items = 1
		if !pr.Result.Known {
			fallback = 1
		}
	}
	for i := range pr.Results {
		items++
		if !pr.Results[i].Known {
			fallback++
		}
	}
	return items, fallback, false, nil
}

// doIngest round-trips one event batch; 503 is backpressure/shedding.
func (w *workload) doIngest(ctx context.Context, payload []byte) (accepted int64, shed bool, err error) {
	resp, err := w.post(ctx, w.base+"/v1/ingest", payload)
	if err != nil {
		return 0, false, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, false, fmt.Errorf("status %d", resp.StatusCode)
	}
	var ir server.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return 0, false, err
	}
	return int64(ir.Accepted), false, nil
}

func (w *workload) post(ctx context.Context, url string, payload []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.client.Do(req)
}
