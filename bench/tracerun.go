package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runLedger is the --trace 1 run. It fills every per-layer row, from
// three sources: short windows against the real processes (proc rows),
// the traced in-process topology (span rows), and the call ledger
// (call rows). Every row is measured on every trace run, whichever
// workload is named — the rows carry their workload in their names —
// and the named workload's raw spans are what is written to
// bench/out/trace-<workload>.json.
func runLedger(e *env, w workload, seed uint64, seconds int) (*result, error) {
	d, err := loadDataset()
	if err != nil {
		return nil, err
	}
	ref, err := newReference(d)
	if err != nil {
		return nil, err
	}
	l := &ledgerRun{e: e, d: d, ref: ref, seed: seed,
		res: &result{values: map[string]float64{}, detail: map[string]any{}}}
	progress("catalog and reference built")
	if err := l.procRows(seconds); err != nil {
		return l.res, err
	}
	progress("process rows measured")
	untraced, err := l.spanRows(w)
	if err != nil {
		return l.res, err
	}
	defer untraced.close()
	progress("span rows measured")
	err = runCallLedger(d, ref, seed, untraced, e.work, l.res.values)
	progress("call ledger measured")
	return l.res, err
}

// ledgerRun is the state the parts of a trace run share.
type ledgerRun struct {
	e    *env
	d    *dataset
	ref  *reference // never fed events: the read-only workloads' reference
	seed uint64
	res  *result
}

// session generates the named workload's traffic. A mixed workload
// gets a reference of its own, because closing it feeds that reference
// the run's events.
func (l *ledgerRun) session(name string) (*session, error) {
	w, _ := findWorkload(name)
	ref := l.ref
	if w.mixed {
		var err error
		if ref, err = newReference(l.d); err != nil {
			return nil, err
		}
	}
	return newSession(l.d, ref, w, l.seed, false)
}

// phase measures one workload against an already booted topology for a
// short window cut into eight segments, and folds the window's counts
// and segment spread into res.
func (l *ledgerRun) phase(t *topology, name string, dur time.Duration) (*session, *driver, *window, error) {
	res := l.res
	s, err := l.session(name)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := s.probe(t.url); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: correctness probe: %w", name, err)
	}
	drv := newDriver(t.url, s.streams, s.check, nil)
	const parts = 8
	win, err := s.measure(t, drv, warmup/4, dur/parts, parts, nil)
	if err != nil {
		drv.close()
		return nil, nil, nil, err
	}
	res.attempted += win.attempted + probeRequests
	res.failed += win.failed
	sp := 100 * spread(fieldOf(win.segs, func(s segStats) float64 { return s.PredsPerS }))
	res.values["bench.segment_spread_pct"] = math.Max(res.values["bench.segment_spread_pct"], sp)
	res.detail["phase:"+name] = win.segs
	if err := drv.firstErr(); err != nil {
		drv.close()
		return nil, nil, nil, fmt.Errorf("%s: %d of %d requests failed, first: %w", name, win.failed, win.attempted, err)
	}
	return s, drv, win, nil
}

func cpuTotal(win *window) float64 {
	var sum float64
	for _, c := range win.cpu {
		sum += c
	}
	return sum
}

// procRows boots each real topology once and measures the rows whose
// source is the processes themselves: boot time, CPU per prediction,
// the gateway's share of it, peak memory, the write-side throughput of
// the mixed workloads, and one recovery cycle.
func (l *ledgerRun) procRows(seconds int) error {
	e, res := l.e, l.res
	// Five short windows share the run's time with the span and call
	// rows: an eighth of --seconds each.
	dur := time.Duration(seconds) * time.Second / 8
	v := res.values
	mid := func(win *window, f func(segStats) float64) float64 { return median(fieldOf(win.segs, f)) }

	// One node, ingest enabled but idle.
	node, err := e.bootNode()
	if err != nil {
		return err
	}
	defer node.kill()
	v["proc.boot_s_node"] = node.bootS
	_, drv, win, err := l.phase(node, nodeB4, dur)
	if err != nil {
		return err
	}
	drv.close()
	v["e2e.p99_ms_node_b4"] = win.whole.P99Ms
	v["server.cpu_us_per_pred_b4"] = cpuTotal(win) * 1e6 / win.preds
	if v["proc.serve_rss_mb"], err = node.nodes[0].peakRSSMB(); err != nil {
		return err
	}
	node.kill()

	// Three shards and the gateway: both read workloads, then the mix
	// (last, because it changes what the shards hold).
	mixed, _ := findWorkload(gwMixed)
	clus, err := e.boot(mixed, "")
	if err != nil {
		return err
	}
	defer clus.kill()
	progress("node phase done")
	v["proc.boot_s_cluster"] = clus.bootS
	for _, name := range []string{gwB4, gwB32} {
		_, drv, win, err := l.phase(clus, name, dur)
		if err != nil {
			return err
		}
		drv.close()
		share := win.cpu[clus.gateway] / cpuTotal(win)
		if name == gwB4 {
			v["cluster.cpu_us_per_pred_b4"] = cpuTotal(win) * 1e6 / win.preds
			v["cluster.gateway_cpu_share_b4"] = share
			v["e2e.p99_ms_gateway_b4"] = win.whole.P99Ms
		} else {
			v["cluster.gateway_cpu_share_b32"] = share
			v["e2e.p99_ms_gateway_b32"] = win.whole.P99Ms
		}
	}
	s, drv, win, err := l.phase(clus, gwMixed, dur)
	if err != nil {
		return err
	}
	v["e2e.events_per_s_gateway"] = mid(win, func(s segStats) float64 { return s.EventsPerS })
	v["e2e.ingest_p99_ms_gateway"] = win.whole.IngestP99Ms
	v["e2e.p99_ms_gateway_mixed"] = win.whole.P99Ms
	err = s.verifyFolded(clus, drv)
	drv.close()
	if err != nil {
		return fmt.Errorf("%s: %w", gwMixed, err)
	}
	res.attempted += probeRequests
	if v["proc.gateway_rss_mb"], err = clus.gateway.peakRSSMB(); err != nil {
		return err
	}
	clus.kill()

	progress("cluster phases done")
	// One durable node: the mix, then a recovery cycle.
	dataDir, err := os.MkdirTemp(e.work, "data-")
	if err != nil {
		return err
	}
	dw, _ := findWorkload(durable)
	dur1, err := e.boot(dw, dataDir)
	if err != nil {
		return err
	}
	defer dur1.kill()
	s, drv, win, err = l.phase(dur1, durable, dur)
	if err != nil {
		return err
	}
	v["e2e.events_per_s_durable"] = mid(win, func(s segStats) float64 { return s.EventsPerS })
	v["e2e.ingest_p99_ms_durable"] = win.whole.IngestP99Ms
	v["e2e.p99_ms_durable"] = win.whole.P99Ms
	err = s.verifyFolded(dur1, drv)
	next := drv.ingestsSent()[0]
	drv.close()
	if err != nil {
		return fmt.Errorf("%s: %w", durable, err)
	}
	res.attempted += probeRequests
	progress("durable phase done")
	v["e2e.recover_s"], err = recoveryCycle(e, s, dur1, dataDir, next, res)
	return err
}

// recoveryTail is the WAL tail a recovery cycle replays: exactly this
// many journaled ingest batches, so the replay work is the same on
// every run.
const recoveryTail = 4000

// recoveryCycle stops the durable node cleanly (flush + checkpoint),
// boots it with periodic checkpoints off, journals exactly recoveryTail
// batches, waits for the last fold, captures the probe answers,
// SIGKILLs the node, and times the next boot from exec to /readyz 200.
// The recovered node must have replayed exactly recoveryTail records
// and must answer the probe as it did before the kill.
func recoveryCycle(e *env, s *session, running *topology, dataDir string, next int, res *result) (float64, error) {
	running.nodes[0].term()
	flags := []string{"-data-dir", dataDir, "-ingest-interval", "500ms", "-checkpoint-every", "0"}
	t, err := e.bootNode(flags...)
	if err != nil {
		return 0, err
	}
	defer func() { t.kill() }()

	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	st := s.streams[0]
	if next+recoveryTail > len(st.ingest) {
		return 0, fmt.Errorf("ingest stream too short for the recovery tail")
	}
	for i := next; i < next+recoveryTail; i++ {
		reply, err := post(client, t.url+"/v1/ingest", st.ingest[i])
		if err == nil {
			err = checkAck(reply, len(st.events[i]))
		}
		if err != nil {
			res.failed++
			return 0, fmt.Errorf("recovery tail batch %d: %w", i-next, err)
		}
	}
	res.attempted += recoveryTail + 2*probeRequests
	before, err := settledProbe(s, t)
	if err != nil {
		return 0, err
	}
	t.kill()

	if t, err = e.bootNode(flags...); err != nil {
		return 0, err
	}
	recoverS := t.bootS
	var stats nodeStats
	if err := t.nodes[0].getJSON("/v1/stats", &stats); err != nil {
		return 0, err
	}
	if stats.Persist.ReplayedRecords != recoveryTail {
		res.failed++
		return 0, fmt.Errorf("recovery replayed %d records, journaled %d", stats.Persist.ReplayedRecords, recoveryTail)
	}
	after, err := s.probeReplies(t.url)
	if err != nil {
		return 0, err
	}
	for i := range before {
		if err := sameReply(before[i], after[i]); err != nil {
			res.failed++
			return 0, fmt.Errorf("probe %d differs after recovery: %w", i, err)
		}
	}
	return recoverS, nil
}

// settledProbe returns the probe answers once the node has folded
// everything it was sent: no pending events, and two captures 200 ms
// apart (several fold-install times) that agree byte for byte with no
// fold between them.
func settledProbe(s *session, t *topology) ([][]byte, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok1, e1, err := drained(t)
		if err != nil {
			return nil, err
		}
		a, err := s.probeReplies(t.url)
		if err != nil {
			return nil, err
		}
		time.Sleep(200 * time.Millisecond)
		b, err := s.probeReplies(t.url)
		if err != nil {
			return nil, err
		}
		ok2, e2, err := drained(t)
		if err != nil {
			return nil, err
		}
		if ok1 && ok2 && e1 == e2 && equalReplies(a, b) {
			return b, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node did not settle after the recovery tail")
		}
	}
}

func equalReplies(a, b [][]byte) bool {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Requests per caller in each traced stream. Counts, not durations, so
// the span populations are the same on every run.
const (
	tracedOpsB4    = 3000
	tracedOpsB32   = 750
	tracedOpsMixed = 2500
	// Tracing is priced on overheadPairs turns of overheadOps
	// operations through the traced and the unwrapped topology in
	// alternation, so that both halves of a pair see the same machine.
	overheadPairs = 3
	overheadOps   = 1000
)

// spanRows drives the generated streams through the traced in-process
// topology and reduces the spans to the span-sourced rows; it then
// alternates the gateway batch-4 stream between that topology and an
// unwrapped twin to price the tracing itself. The untraced twin is
// returned for the call ledger.
func (l *ledgerRun) spanRows(named workload) (*inproc, error) {
	e, d, res := l.e, l.d, l.res
	rec := newRecorder(300_000)
	traced, err := newInproc(d, rec)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	untraced, err := newInproc(d, nil)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			untraced.close()
		}
	}()

	type stream struct {
		name string
		url  string
		ops  int
	}
	streams := []stream{
		{nodeB4, traced.nodeURL, tracedOpsB4},
		{gwB4, traced.gatewayURL, tracedOpsB4},
		{gwB32, traced.gatewayURL, tracedOpsB32},
		{gwMixed, traced.gatewayURL, tracedOpsMixed},
	}
	var overhead []float64
	for _, st := range streams {
		if st.name == gwMixed {
			// The mix goes last, after the overhead turns: its folds
			// change what the traced shards hold.
			for i := 0; i < overheadPairs; i++ {
				with, err := l.driveInproc(gwB4, "overhead", traced.gatewayURL, overheadOps, rec)
				if err != nil {
					return nil, err
				}
				without, err := l.driveInproc(gwB4, "", untraced.gatewayURL, overheadOps, nil)
				if err != nil {
					return nil, err
				}
				overhead = append(overhead, with.Seconds()/without.Seconds())
			}
		}
		if _, err := l.driveInproc(st.name, st.name, st.url, st.ops, rec); err != nil {
			return nil, err
		}
	}
	stats := map[string]spanStats{}
	spans, dropped := rec.recorded()
	if dropped > 0 {
		return nil, fmt.Errorf("span buffer too small: %d spans dropped", dropped)
	}
	for _, st := range streams {
		reqs := groupSpans(spans, st.name+"-")
		stats[st.name] = analyse(reqs, "/v1/predict")
		if st.name == gwMixed {
			stats["ingest"] = analyse(reqs, "/v1/ingest")
		}
	}

	v := res.values
	v["server.handler_span_us_b4"] = stats[nodeB4].handlerUs
	v["server.loopback_us_b4"] = stats[nodeB4].loopbackUs
	v["cluster.gateway_self_us_b4"] = stats[gwB4].selfUs
	v["cluster.gateway_self_us_b32"] = stats[gwB32].selfUs
	v["cluster.leg_us_b4"] = stats[gwB4].legUs
	v["cluster.leg_us_b32"] = stats[gwB32].legUs
	v["cluster.hop_us_b4"] = stats[gwB4].hopUs
	v["cluster.hop_us_b32"] = stats[gwB32].hopUs
	v["cluster.slowest_leg_us_b4"] = stats[gwB4].slowestUs
	v["cluster.leg_skew_b4"] = stats[gwB4].legSkew
	v["cluster.legs_per_req"] = stats[gwB4].legsPerReq
	v["cluster.ingest_self_us_b4"] = stats["ingest"].selfUs
	v["cluster.ingest_legs_per_req"] = stats["ingest"].legsPerReq
	v["bench.trace_overhead_pct"] = 100 * (median(overhead) - 1)
	for name, st := range stats {
		res.detail["spans:"+name] = map[string]float64{
			"requests": float64(st.requests), "client_us": st.clientUs, "handler_us": st.handlerUs,
			"loopback_us": st.loopbackUs, "self_us": st.selfUs, "leg_us": st.legUs, "hop_us": st.hopUs,
			"shard_handler_us": st.shardUs, "slowest_leg_us": st.slowestUs, "leg_skew": st.legSkew,
			"legs_per_req": st.legsPerReq,
		}
	}

	// Keep the raw spans of the workload this run was asked about (the
	// two node workloads share the lone-node stream).
	keep := named.name
	if !named.gateway {
		keep = nodeB4
	}
	var own []spanRec
	for _, s := range spans {
		if strings.HasPrefix(s.Trace, keep+"-") {
			own = append(own, s)
		}
	}
	if err := dumpSpans(filepath.Join(e.out, "trace-"+named.name+".json"), own); err != nil {
		return nil, err
	}
	ok = true
	return untraced, nil
}

// driveInproc sends ops operations per caller of the named workload's
// stream to url and returns how long that took; with a recorder the
// trace ids start with tag. Replies are checked exactly (in shape, on
// the mix) as in the real-process runs.
func (l *ledgerRun) driveInproc(name, tag, url string, ops int, rec *recorder) (time.Duration, error) {
	res := l.res
	s, err := l.session(name)
	if err != nil {
		return 0, err
	}
	drv := newDriver(url, s.streams, s.check, rec)
	drv.tag = tag
	defer drv.close()
	drv.run(0, 200) // connections, pools and caches warm before the count starts
	start := time.Now()
	drv.run(0, ops)
	elapsed := time.Since(start)
	for _, c := range drv.callers {
		res.attempted += len(c.samples)
		for _, sm := range c.samples {
			if sm.failed {
				res.failed++
			}
		}
	}
	if err := drv.firstErr(); err != nil {
		return 0, fmt.Errorf("in-process %s: %w", name, err)
	}
	return elapsed, nil
}
