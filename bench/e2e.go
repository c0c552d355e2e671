package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// session is one workload's generated traffic plus the means to judge
// the replies to it.
type session struct {
	w       workload
	ref     *reference
	streams []*callerStream
	expect  [][][]byte  // the reference's own reply per predict body; nil = always compare numerically
	bufs    [][]float64 // per-caller scratch for reference predictions
}

// newSession generates the workload's streams from seed. With
// expectBodies the reference's reply to every predict body is rendered
// up front, so a byte-identical served reply — the rule on a lone node
// — is accepted by one comparison instead of a decode.
func newSession(d *dataset, ref *reference, w workload, seed uint64, expectBodies bool) (*session, error) {
	streams, err := genStreams(d, w, seed)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, ref: ref, streams: streams}
	for range streams {
		s.bufs = append(s.bufs, make([]float64, d.res.World.N()))
	}
	if expectBodies && !w.mixed {
		for _, st := range streams {
			exp := make([][]byte, len(st.predict))
			for i, body := range st.predict {
				if exp[i], err = ref.expectedBody(body); err != nil {
					return nil, err
				}
			}
			s.expect = append(s.expect, exp)
		}
	}
	return s, nil
}

// check is the driver's checker. Read-only workloads are checked
// exactly against the reference on every reply; on mixed workloads
// folds move the served state during the run, so replies are checked
// for shape in flight and exactly before the run and after the last
// fold (probe, verifyFolded).
func (s *session) check(caller int, ingest bool, idx int, reply []byte) error {
	switch {
	case ingest:
		return checkAck(reply, len(s.streams[caller].events[idx]))
	case s.w.mixed:
		return checkShape(reply, s.w.batch)
	case s.expect != nil && bytes.Equal(reply, s.expect[caller][idx]):
		return nil
	default:
		return s.ref.checkPredict(reply, s.streams[caller].items[idx], s.bufs[caller])
	}
}

// probeReplies sends the first probeRequests predict bodies of the
// streams, one at a time, and returns the raw replies.
func (s *session) probeReplies(url string) ([][]byte, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	var out [][]byte
	for i := 0; i < probeRequests; i++ {
		st := s.streams[i%len(s.streams)]
		reply, err := post(client, url+"/v1/predict", st.predict[i/len(s.streams)])
		if err != nil {
			return nil, fmt.Errorf("probe request %d: %w", i, err)
		}
		out = append(out, reply)
	}
	return out, nil
}

// probe is the correctness gate: every probe reply must equal the
// reference's prediction to tolerance.
func (s *session) probe(url string) error {
	replies, err := s.probeReplies(url)
	if err != nil {
		return err
	}
	for i, reply := range replies {
		items := s.streams[i%len(s.streams)].items[i/len(s.streams)]
		if err := s.ref.checkPredict(reply, items, s.bufs[0]); err != nil {
			return fmt.Errorf("probe request %d: %w", i, err)
		}
	}
	return nil
}

// post sends one JSON body and returns the 200 reply's bytes.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply, nil
}

// nodeStats is the part of a serve's /v1/stats the benchmark reads.
type nodeStats struct {
	Stream struct {
		Epoch   uint64 `json:"epoch"`
		Events  int64  `json:"events"`
		Pending int64  `json:"pending"`
	} `json:"stream"`
	Persist struct {
		ReplayedRecords int64 `json:"replayed_records"`
	} `json:"persist"`
}

// drained reports whether no node holds unfolded events, and the sum
// of the nodes' fold epochs.
func drained(t *topology) (ok bool, epochs uint64, err error) {
	ok = true
	for _, n := range t.nodes {
		var st nodeStats
		if err := n.getJSON("/v1/stats", &st); err != nil {
			return false, 0, err
		}
		ok = ok && st.Stream.Pending == 0
		epochs += st.Stream.Epoch
	}
	return ok, epochs, nil
}

// verifyFolded closes a mixed run: the reference is fed exactly the
// events the callers had acked, and once the system has folded its
// last event its probe answers must equal the reference's again. On a
// lone node the accepted-event counter must also equal the events sent.
func (s *session) verifyFolded(t *topology, drv *driver) error {
	sent := 0
	for c, n := range drv.ingestsSent() {
		for _, events := range s.streams[c].events[:n] {
			if err := s.ref.apply(events); err != nil {
				return err
			}
			sent += len(events)
		}
	}
	if err := s.ref.fold(); err != nil {
		return err
	}
	if t.gateway == nil {
		var st nodeStats
		if err := t.nodes[0].getJSON("/v1/stats", &st); err != nil {
			return err
		}
		if st.Stream.Events != int64(sent) {
			return fmt.Errorf("node accepted %d events, callers sent %d", st.Stream.Events, sent)
		}
	}
	// The last fold lands within one fold interval of the last ack.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, _, err := drained(t)
		if err != nil {
			return err
		}
		if ok {
			if err = s.probe(t.url); err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("after the last fold the system still differs from the reference: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Timing of one measured window. Segments are 2 s so that even the
// slowest workload (batch 32 through the gateway, ~850 requests/s)
// puts more than ten requests beyond each segment's p99.
const (
	setupRepeats = 3
	warmup       = time.Second
	segment      = 2 * time.Second
)

// window is the outcome of one timed window against a live topology.
type window struct {
	segs      []segStats // as measured
	whole     segStats   // the window as one segment (uncalibrated windows only)
	readings  []float64  // machine speed before and after each segment (calibrated windows only)
	attempted int
	failed    int
	preds     float64             // predictions answered in the window
	cpu       map[*daemon]float64 // CPU seconds each daemon burned in it
}

// measure warms the topology up, then drives the session's streams for
// n segments of length seg, reading every daemon's CPU clock at both
// ends of the timed part. With a calibrator the load pauses before and
// after every segment for one calibration reading.
func (s *session) measure(t *topology, drv *driver, warm, seg time.Duration, n int, cal *calibrator) (*window, error) {
	drv.run(warm, 0)
	for _, c := range drv.callers {
		c.samples = c.samples[:0]
	}
	before := map[*daemon]float64{}
	for _, d := range t.all() {
		cpu, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		before[d] = cpu
	}
	win := &window{cpu: map[*daemon]float64{}}
	calibrate := func() error {
		if cal == nil {
			return nil
		}
		sp, err := cal.speed()
		win.readings = append(win.readings, sp)
		return err
	}
	began := time.Now()
	for i := 0; i < n; i++ {
		if err := calibrate(); err != nil {
			return nil, err
		}
		from := time.Now()
		drv.run(seg, 0)
		win.segs = append(win.segs, drv.segments(from, seg, 1)[0])
	}
	if err := calibrate(); err != nil {
		return nil, err
	}
	if cal == nil {
		win.whole = drv.segments(began, time.Since(began), 1)[0]
	}
	for _, d := range t.all() {
		cpu, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		win.cpu[d] = cpu - before[d]
	}
	for _, sg := range win.segs {
		win.attempted += sg.Requests + sg.Ingests
		win.failed += sg.Failed
		win.preds += sg.PredsPerS * seg.Seconds()
	}
	return win, nil
}

// result is what a run reports: the metric values by name, and the
// request counts behind them.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	detail    map[string]any // segments, spreads, sample counts: written to bench/out
	notes     []string       // what stdout says beside the metrics: sample counts, values as measured
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runEndToEnd is the --trace 0 run: the real binaries with shipping
// defaults, booted setupRepeats times (the median is setup_s), probed
// for correctness, then driven closed-loop for seconds.
func runEndToEnd(e *env, w workload, seed uint64, seconds int) (*result, error) {
	d, err := loadDataset()
	if err != nil {
		return nil, err
	}
	ref, err := newReference(d)
	if err != nil {
		return nil, err
	}
	s, err := newSession(d, ref, w, seed, !w.gateway)
	if err != nil {
		return nil, err
	}
	progress("catalog, reference and streams built")

	var t *topology
	var setups, booted []float64 // per boot: set-up seconds, peak memory once probed
	for i := 0; i < setupRepeats; i++ {
		if t != nil {
			t.kill()
		}
		start := time.Now()
		if t, err = e.boot(w, ""); err != nil {
			return nil, err
		}
		if err := s.probe(t.url); err != nil {
			return nil, fmt.Errorf("correctness probe: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		mb, err := t.peakRSSMB()
		if err != nil {
			return nil, err
		}
		booted = append(booted, mb)
	}
	defer t.kill()
	progress("%s booted %d times and probed", w.name, setupRepeats)

	drv := newDriver(t.url, s.streams, s.check, nil)
	defer drv.close()
	n := seconds / int(segment.Seconds())
	seg := segment
	if n < 1 {
		n, seg = 1, time.Duration(seconds)*time.Second
	}
	cal, err := newCalibrator(e)
	if err != nil {
		return nil, err
	}
	defer cal.close()
	win, err := s.measure(t, drv, warmup, seg, n, cal)
	if err != nil {
		return nil, err
	}
	progress("timed window done")
	atEnd, err := t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Stated at the reference machine speed: on a machine that ran the
	// calibration at `speed` times the reference rate during the run,
	// rates are divided by speed and times multiplied.
	speed := mean(win.readings)
	preds := fieldOf(win.segs, func(s segStats) float64 { return s.PredsPerS })
	p50 := fieldOf(win.segs, func(s segStats) float64 { return s.P50Ms })
	p99 := fieldOf(win.segs, func(s segStats) float64 { return s.P99Ms })
	res := &result{
		attempted: win.attempted + probeRequests*setupRepeats,
		failed:    win.failed,
		values: map[string]float64{
			"preds_per_s": median(preds) / speed,
			"p50_ms":      median(p50) * speed,
			"rss_mb":      median(booted),
			"setup_s":     median(setups) * speed,
		},
		detail: map[string]any{
			"segments":        win.segs, // as measured
			"segment_seconds": seg.Seconds(),
			"machine_speed":   speed,
			"speed_readings":  win.readings,
			"setups_s":        setups, // as measured
			"booted_rss_mb":   booted,
			"end_rss_mb":      atEnd, // after the load: what the measured boot grew to
			"p99_ms":          median(p99) * speed,
			"segment_spread":  map[string]float64{"preds_per_s": spread(preds), "p50_ms": spread(p50), "p99_ms": spread(p99)},
		},
	}
	res.notef("%-42s %14.4f ms (not bounded: see e2e.p99_ms_* in the ledger)", "p99_ms", median(p99)*speed)
	res.notef("  machine speed during the run: %.3f of reference, from readings %.3f", speed, win.readings)
	res.notef("  set-ups as measured: %.3f s", setups)
	for i, sg := range win.segs {
		res.notef("  segment %d as measured: %d predict requests, %d ingests: %.0f preds/s, p50 %.3f ms, p99 %.3f ms",
			i, sg.Requests, sg.Ingests, sg.PredsPerS, sg.P50Ms, sg.P99Ms)
	}
	if err := drv.firstErr(); err != nil {
		return res, fmt.Errorf("%d of %d requests failed, first: %w", win.failed, win.attempted, err)
	}
	if w.mixed {
		if err := s.verifyFolded(t, drv); err != nil {
			return res, err
		}
		res.attempted += probeRequests
	}
	return res, nil
}
