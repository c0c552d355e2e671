package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RunOptions parameterizes one engine run.
type RunOptions struct {
	// Target, when set, is the base URL of a daemon that is already
	// running — a node or a gateway. The engine then builds, boots and
	// owns nothing: it drives the spec's phases at that address and
	// scrapes, traces and scores as it does a tier it booted. The spec's
	// topology fields are ignored (videos and seed must match the daemon,
	// or its tags are not the ones asked about) and a spec with chaos is
	// refused, because the engine can only fault processes it started.
	// Bins, ModuleDir, Race, Workdir and Keep have no effect.
	Target string
	// Bins are prebuilt serve/gateway binaries; zero means build them
	// into the workdir (requires the go toolchain and the module root
	// as the working directory or ModuleDir).
	Bins Binaries
	// ModuleDir is where `go build` runs when Bins is zero.
	ModuleDir string
	// Race race-instruments the built daemons (ignored when Bins is
	// set), turning a chaos run into a data-race hunt too.
	Race bool
	// Workdir holds binaries and shard data dirs; "" makes a temp dir,
	// removed afterward unless Keep.
	Workdir string
	Keep    bool
	Logger  *log.Logger
	// ScrapeInterval is the mid-run gateway poll cadence (default
	// 500ms) feeding staleness and recovery measurement.
	ScrapeInterval time.Duration
	// DumpDir, when set, turns on the engine's flight recorder: every
	// fired chaos event and any SLO breach dumps the gateway's retained
	// trace ring to traces_<event>.json in this directory (cmd/scenario
	// points it next to the -out report).
	DumpDir string
}

// scrapeSample is one mid-run observation of the gateway: the
// /v1/stats cluster block plus the /metrics exposition's min-epoch
// gauge (scraped like a real Prometheus would, so the text surface
// stays exercised under chaos).
type scrapeSample struct {
	at           time.Duration // since traffic start
	ok           bool
	healthy      int
	shardHealthy []bool
	epochs       []uint64
	minEpoch     uint64
	promMin      float64
	promOK       bool
	handoffEpoch uint64
}

// statsView mirrors the slice of gateway /v1/stats the engine reads.
type statsView struct {
	Cluster struct {
		Shards []struct {
			Index   int    `json:"index"`
			Epoch   uint64 `json:"epoch"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
		Epoch   uint64 `json:"epoch"`
		Healthy int    `json:"healthy"`
		Handoff *struct {
			Epoch uint64 `json:"epoch"`
			Phase string `json:"phase"`
		} `json:"handoff"`
	} `json:"cluster"`
}

// scraper polls the gateway on a fixed cadence, accumulating the
// timeline recovery and staleness are computed from. Scrape failures
// (gateway restarting) are recorded, not fatal.
type scraper struct {
	base     string
	client   *http.Client
	start    time.Time
	interval time.Duration

	mu      sync.Mutex
	samples []scrapeSample
}

func (s *scraper) run(ctx context.Context) {
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.scrapeOnce(ctx)
		}
	}
}

func (s *scraper) scrapeOnce(ctx context.Context) {
	sample := scrapeSample{at: time.Since(s.start)}
	var sv statsView
	if err := s.getJSON(ctx, s.base+"/v1/stats", &sv); err == nil {
		sample.ok = true
		sample.healthy = sv.Cluster.Healthy
		sample.minEpoch = sv.Cluster.Epoch
		if sv.Cluster.Handoff != nil {
			sample.handoffEpoch = sv.Cluster.Handoff.Epoch
		}
		sample.shardHealthy = make([]bool, len(sv.Cluster.Shards))
		sample.epochs = make([]uint64, len(sv.Cluster.Shards))
		for _, sh := range sv.Cluster.Shards {
			if sh.Index >= 0 && sh.Index < len(sample.shardHealthy) {
				sample.shardHealthy[sh.Index] = sh.Healthy
				sample.epochs[sh.Index] = sh.Epoch
			}
		}
	}
	if v, err := s.promGauge(ctx, "viewstags_cluster_min_epoch"); err == nil {
		sample.promMin = v
		sample.promOK = true
	}
	s.mu.Lock()
	s.samples = append(s.samples, sample)
	s.mu.Unlock()
}

func (s *scraper) getJSON(ctx context.Context, url string, out any) error {
	return getJSONInto(ctx, s.client, url, out)
}

// getJSONInto is the engine's one-shot JSON GET, shared by the scraper
// and the trace fetcher.
func getJSONInto(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// promGauge fetches /metrics and extracts one gauge's value from the
// exposition text.
func (s *scraper) promGauge(ctx context.Context, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("gauge %s not in exposition", name)
}

func (s *scraper) snapshot() []scrapeSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]scrapeSample(nil), s.samples...)
}

// Run executes one scenario end to end: boot (or, with opts.Target,
// attach to what is already running), traffic + chaos, scrape, score.
// The returned report is fully scored; rep.Pass is the SLO verdict. An
// error means the run itself could not be carried out (boot failure,
// chaos that wouldn't apply) — an SLO breach is NOT an error, it's a
// scored fail.
func Run(sc *Spec, opts RunOptions) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.New(os.Stderr, "scenario: ", log.LstdFlags)
	}
	// base is where traffic, scrapes and trace fetches go; cluster stays
	// nil when the daemon there is not the engine's (no chaos to apply).
	base := strings.TrimSuffix(opts.Target, "/")
	var cluster *Cluster
	if base != "" {
		if len(sc.Chaos) > 0 {
			return nil, fmt.Errorf("scenario %s declares %d chaos event(s), and the engine can only fault processes it started — drop the chaos block to drive the target %s, or run without a target",
				sc.Name, len(sc.Chaos), base)
		}
		logger.Printf("driving %s (videos=%d seed=%d must match it)", base, sc.Videos, sc.Seed)
	} else {
		workdir := opts.Workdir
		if workdir == "" {
			dir, err := makeWorkdir()
			if err != nil {
				return nil, err
			}
			workdir = dir
			if !opts.Keep {
				defer func() { _ = os.RemoveAll(dir) }()
			} else {
				logger.Printf("keeping workdir %s", dir)
			}
		}
		bins := opts.Bins
		if bins.Serve == "" || bins.Gateway == "" {
			logger.Printf("building serve + gateway into %s", workdir)
			built, err := buildBinaries(workdir, opts.ModuleDir, opts.Race)
			if err != nil {
				return nil, err
			}
			bins = built
		}

		logger.Printf("booting %d shard(s) + gateway (videos=%d durable=%v)", sc.Shards, sc.Videos, sc.Durable)
		var err error
		if cluster, err = startCluster(bins, sc, workdir, logger); err != nil {
			return nil, err
		}
		defer cluster.Stop()
		base = cluster.GatewayURL()
	}

	w, err := newWorkload(sc, base)
	if err != nil {
		return nil, err
	}

	scrapeEvery := opts.ScrapeInterval
	if scrapeEvery <= 0 {
		scrapeEvery = 500 * time.Millisecond
	}
	trafficStart := time.Now()
	w.start(trafficStart)
	scr := &scraper{
		base:     base,
		client:   &http.Client{Timeout: 3 * time.Second},
		start:    trafficStart,
		interval: scrapeEvery,
	}
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trc := &tracer{
		base:   base,
		client: &http.Client{Timeout: 3 * time.Second},
		logger: logger,
	}
	var dumps []string // written by the chaos goroutine, read after bg.Wait()
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { defer bg.Done(); scr.run(runCtx) }()

	// Chaos timeline: fire each event at its offset, in order. A chaos
	// step that cannot be applied aborts the run — scoring a scenario
	// whose faults never happened would report a lie.
	chaosErr := make(chan error, 1)
	chaosDone := make(chan []ChaosResult, 1)
	bg.Add(1)
	go func() {
		defer bg.Done()
		events := append([]ChaosEvent(nil), sc.Chaos...)
		sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
		fired := make([]ChaosResult, 0, len(events))
		for _, ev := range events {
			wait := time.Until(trafficStart.Add(ev.At.D()))
			select {
			case <-runCtx.Done():
				chaosDone <- fired
				return
			case <-time.After(wait):
			}
			logger.Printf("chaos: t=%s %s shard=%d", time.Since(trafficStart).Round(time.Millisecond), ev.Action, ev.Shard)
			res := ChaosResult{At: time.Since(trafficStart).Seconds(), Action: ev.Action, Shard: ev.Shard}
			var err error
			switch ev.Action {
			case ActionKillShard:
				err = cluster.KillShard(ev.Shard)
			case ActionRestartShard:
				err = cluster.RestartShard(ev.Shard)
			case ActionRestartGateway:
				err = cluster.RestartGateway()
			case ActionSlowShard:
				cluster.SetShardDelay(ev.Shard, ev.Delay.D())
			case ActionUnslowShard:
				cluster.SetShardDelay(ev.Shard, 0)
			case ActionGrowCluster:
				err = cluster.GrowCluster()
			}
			if err != nil {
				select {
				case chaosErr <- fmt.Errorf("scenario: chaos %s: %w", ev.Action, err):
				default:
				}
				chaosDone <- fired
				return
			}
			fired = append(fired, res)
			// Flight recorder: black-box the gateway's retained ring
			// right after the fault lands, so "what was in flight when
			// the shard died" survives even if the run later crashes.
			if opts.DumpDir != "" {
				event := fmt.Sprintf("chaos-%s-%d", ev.Action, ev.Shard)
				if p := trc.dump(opts.DumpDir, event); p != "" {
					dumps = append(dumps, p)
				}
			}
		}
		chaosDone <- fired
	}()

	logger.Printf("traffic: %s scripted (%s warmup excluded)", sc.Duration(), sc.Warmup)
	w.run(runCtx)
	trafficElapsed := time.Since(trafficStart)

	// Let the scraper watch the post-traffic cluster briefly so a
	// recovery that completes right at the end is still observed.
	time.Sleep(2 * scrapeEvery)
	cancel()
	bg.Wait()
	fired := <-chaosDone
	select {
	case err := <-chaosErr:
		return nil, err
	default:
	}

	samples := scr.snapshot()
	rep := &Report{
		Schema:         Schema,
		Scenario:       sc.Name,
		Spec:           sc,
		ElapsedSeconds: trafficElapsed.Seconds(),
	}
	measured := trafficElapsed - sc.Warmup.D()
	if measured <= 0 {
		measured = trafficElapsed
	}
	anyRead, anyWrite := false, false
	for i := range sc.Phases {
		if sc.Phases[i].IngestFrac < 1 {
			anyRead = true
		}
		if sc.Phases[i].IngestFrac > 0 {
			anyWrite = true
		}
	}
	if anyRead {
		s := w.reads.Snapshot(measured)
		rep.Read = &s
	}
	if anyWrite {
		s := w.writes.Snapshot(measured)
		rep.Write = &s
	}
	for i := range sc.Phases {
		pr := PhaseResult{Name: sc.Phases[i].Name}
		dur := sc.Phases[i].Duration.D()
		if sc.Phases[i].IngestFrac < 1 {
			s := w.phaseReads[i].Snapshot(dur)
			pr.Read = &s
		}
		if sc.Phases[i].IngestFrac > 0 {
			s := w.phaseWrites[i].Snapshot(dur)
			pr.Write = &s
		}
		rep.Phases = append(rep.Phases, pr)
	}
	rep.Cluster = clusterResult(sc, samples)
	rep.Chaos = resolveRecoveries(fired, samples)
	for i := range rep.Chaos {
		if r := rep.Chaos[i].Recovery; r > rep.Cluster.WorstRecovery {
			rep.Cluster.WorstRecovery = r
		}
		if rep.Chaos[i].Recovery < 0 {
			rep.Cluster.WorstRecovery = -1
			break
		}
	}
	// Trace attribution: with the cluster still up, ask the gateway for
	// the worst retained trace per stream so the scorecard can name the
	// exact request behind each violated or near-miss SLO.
	refCtx, refCancel := context.WithTimeout(context.Background(), 5*time.Second)
	refs := trc.refs(refCtx)
	refCancel()
	refs.Dumps = dumps
	rep.Traces = &refs
	score(rep)
	if !rep.Pass && opts.DumpDir != "" {
		if p := trc.dump(opts.DumpDir, "slo-breach"); p != "" {
			rep.Traces.Dumps = append(rep.Traces.Dumps, p)
		}
	}
	logger.Print(strings.TrimRight(Scorecard(rep), "\n"))
	return rep, nil
}

// clusterResult folds the scrape timeline into the report's cluster
// block. Staleness only considers scrapes where every shard is
// healthy: while a shard is down its tracked epoch is frozen history,
// and right after revival the spread IS the recovery lag we want
// measured — both cases are covered because revival flips the shard
// healthy before its folds catch up.
func clusterResult(sc *Spec, samples []scrapeSample) ClusterResult {
	out := ClusterResult{Shards: sc.Shards}
	for _, s := range samples {
		if !s.ok {
			continue
		}
		out.Scrapes++
		out.FinalHealthy = s.healthy
		out.FinalEpoch = s.minEpoch
		if s.handoffEpoch > out.HandoffEpoch {
			out.HandoffEpoch = s.handoffEpoch
		}
		// Shard count follows the scrapes, not the spec: grow-cluster
		// changes it mid-run and the report should show where it landed.
		if len(s.shardHealthy) > 0 {
			out.Shards = len(s.shardHealthy)
		}
		if n := len(s.epochs); n > 0 && s.healthy == n {
			min, max := s.epochs[0], s.epochs[0]
			for _, e := range s.epochs[1:] {
				if e < min {
					min = e
				}
				if e > max {
					max = e
				}
			}
			if spread := max - min; spread > out.MaxStaleness {
				out.MaxStaleness = spread
			}
		}
	}
	return out
}

// resolveRecoveries computes each disruptive event's recovery time:
// from the fault to the first scrape — at or after the first scrape
// that actually OBSERVED the impact (gateway unreachable, or some
// shard unhealthy) — where the gateway answers and reports the full
// cluster healthy again. Skipping ahead to the impact matters: right
// after a SIGKILL the health detector has not yet tripped, so the
// very next scrape still shows all-healthy and would otherwise score
// a fake millisecond "recovery". -1 when impact was observed but the
// run ended before the cluster healed; 0 when the scraper never
// caught the fault at all (it healed between scrapes).
// Non-disruptive events (slow/unslow, restarts that are themselves
// the heal step) carry no recovery of their own.
func resolveRecoveries(fired []ChaosResult, samples []scrapeSample) []ChaosResult {
	for i := range fired {
		ev := &fired[i]
		if ev.Action != ActionKillShard && ev.Action != ActionRestartGateway {
			continue
		}
		impact := -1
		for j, s := range samples {
			if s.at.Seconds() < ev.At {
				continue
			}
			if !s.ok || s.healthy < len(s.shardHealthy) || len(s.shardHealthy) == 0 {
				impact = j
				break
			}
		}
		if impact < 0 {
			ev.Recovery = 0
			continue
		}
		ev.Recovery = -1
		for _, s := range samples[impact:] {
			if s.ok && len(s.shardHealthy) > 0 && s.healthy == len(s.shardHealthy) {
				ev.Recovery = s.at.Seconds() - ev.At
				break
			}
		}
	}
	return fired
}
