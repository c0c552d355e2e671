package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// sample is one completed request as a caller saw it.
type sample struct {
	end    int64 // completion time, ns since the driver was created
	lat    int64 // ns from just before the send to the last body byte
	items  int32 // predictions or events the request carried
	ingest bool
	failed bool // transport error, non-200, or a wrong answer
}

// checker judges one reply. caller and idx name the request body in
// the caller's stream (predict or ingest, per the flag).
type checker func(caller int, ingest bool, idx int, reply []byte) error

// driver is the load generator: `callers` closed-loop callers, each
// with its own keep-alive connection, each sending its pre-generated
// stream in order and waiting for every reply before the next send —
// the upload-pipeline worker the system is built for. Stream positions
// persist across run calls, so an ingest body is sent once per driver.
type driver struct {
	url     string
	streams []*callerStream
	check   checker
	rec     *recorder // non-nil: stamp X-Request-Id and record client spans
	tag     string    // prefix of the trace ids, naming the traced stream
	epoch   time.Time
	callers []*callerState
}

type callerState struct {
	client   *http.Client
	ops      int // operations sent so far
	predicts int
	ingests  int
	samples  []sample
	err      error // first failure, kept for the report
}

func newDriver(url string, streams []*callerStream, check checker, rec *recorder) *driver {
	d := &driver{url: url, streams: streams, check: check, rec: rec, epoch: time.Now()}
	for range streams {
		d.callers = append(d.callers, &callerState{
			client: &http.Client{
				Timeout: 30 * time.Second,
				Transport: &http.Transport{
					MaxConnsPerHost:     1,
					MaxIdleConnsPerHost: 1,
					DisableCompression:  true,
				},
			},
			samples: make([]sample, 0, 1<<17),
		})
	}
	return d
}

// close drops the callers' connections.
func (d *driver) close() {
	for _, c := range d.callers {
		c.client.CloseIdleConnections()
	}
}

// run drives all callers until dur has passed (dur > 0) or each has
// sent count more operations (count > 0), and returns when the last
// reply is in. Samples accumulate on the callers.
func (d *driver) run(dur time.Duration, count int) {
	var wg sync.WaitGroup
	start := time.Now()
	for c := range d.callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.loop(c, start, dur, count)
		}(c)
	}
	wg.Wait()
}

func (d *driver) loop(c int, start time.Time, dur time.Duration, count int) {
	st, s := d.callers[c], d.streams[c]
	var reply bytes.Buffer
	for sent := 0; ; sent++ {
		if dur > 0 && time.Since(start) >= dur || count > 0 && sent >= count {
			return
		}
		ingest := s.isIngest(st.ops)
		var body []byte
		var idx int
		path := "/v1/predict"
		items := int32(len(s.items[0]))
		if ingest {
			if st.ingests >= len(s.ingest) {
				st.fail(fmt.Errorf("caller %d ran out of ingest bodies after %d", c, st.ingests))
				return
			}
			idx, path, items = st.ingests, "/v1/ingest", ingestBatch
			body = s.ingest[idx]
			st.ingests++
		} else {
			idx = st.predicts % len(s.predict)
			body = s.predict[idx]
			st.predicts++
		}
		op := st.ops
		st.ops++

		var id string
		if d.rec != nil {
			id = requestID(d.tag, c, op)
		}
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			if id != "" {
				req.Header.Set("X-Request-Id", id)
			}
			var resp *http.Response
			if resp, err = st.client.Do(req); err == nil {
				reply.Reset()
				_, err = reply.ReadFrom(resp.Body)
				_ = resp.Body.Close() // the body is fully read; nothing left to lose
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("%s answered %d: %s", path, resp.StatusCode, bytes.TrimSpace(reply.Bytes()))
				}
			}
		}
		t1 := time.Now()
		if d.rec != nil {
			d.rec.add(spanRec{Trace: id, Name: spanClient, Shard: -1,
				Start: t0.Sub(d.rec.epoch).Nanoseconds(), End: t1.Sub(d.rec.epoch).Nanoseconds()})
		}
		if err == nil {
			err = d.check(c, ingest, idx, reply.Bytes())
		}
		if err != nil {
			st.fail(err)
		}
		st.samples = append(st.samples, sample{
			end: t1.Sub(d.epoch).Nanoseconds(), lat: t1.Sub(t0).Nanoseconds(),
			items: items, ingest: ingest, failed: err != nil,
		})
	}
}

func (st *callerState) fail(err error) {
	if st.err == nil {
		st.err = err
	}
}

// requestID is the trace id a traced caller stamps on its op-th
// request; the gateway propagates it to every shard leg.
func requestID(tag string, caller, op int) string {
	return tag + "-" + strconv.Itoa(caller) + "-" + strconv.Itoa(op)
}

// firstErr returns the first failure any caller saw.
func (d *driver) firstErr() error {
	for _, c := range d.callers {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// ingestsSent lists the ingest bodies each caller has had acked.
func (d *driver) ingestsSent() []int {
	out := make([]int, len(d.callers))
	for i, c := range d.callers {
		out[i] = c.ingests
	}
	return out
}

// segStats is one timed segment of a run.
type segStats struct {
	Requests    int     `json:"requests"` // predict requests
	Ingests     int     `json:"ingests"`
	Failed      int     `json:"failed"`
	PredsPerS   float64 `json:"preds_per_s"`
	EventsPerS  float64 `json:"events_per_s"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	IngestP99Ms float64 `json:"ingest_p99_ms"`
}

// segments cuts the samples completed in [from, from+n*seg) into n
// segments of length seg. Throughput counts the items of good
// requests; a failed request stays in the latency population at the
// worst latency a segment can hold, so it cannot flatter a percentile.
func (d *driver) segments(from time.Time, seg time.Duration, n int) []segStats {
	lo := from.Sub(d.epoch).Nanoseconds()
	out := make([]segStats, n)
	lat := make([][]int64, n)
	ingestLat := make([][]int64, n)
	for _, c := range d.callers {
		for _, s := range c.samples {
			i := int((s.end - lo) / seg.Nanoseconds())
			if s.end < lo || i >= n {
				continue
			}
			st := &out[i]
			l := s.lat
			if s.failed {
				st.Failed++
				l = seg.Nanoseconds()
			}
			if s.ingest {
				st.Ingests++
				ingestLat[i] = append(ingestLat[i], l)
				if !s.failed {
					st.EventsPerS += float64(s.items)
				}
			} else {
				st.Requests++
				lat[i] = append(lat[i], l)
				if !s.failed {
					st.PredsPerS += float64(s.items)
				}
			}
		}
	}
	for i := range out {
		st := &out[i]
		st.PredsPerS /= seg.Seconds()
		st.EventsPerS /= seg.Seconds()
		sortInt64(lat[i])
		sortInt64(ingestLat[i])
		st.P50Ms = float64(percentile(lat[i], 0.50)) / 1e6
		st.P99Ms = float64(percentile(lat[i], 0.99)) / 1e6
		st.IngestP99Ms = float64(percentile(ingestLat[i], 0.99)) / 1e6
	}
	return out
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// fieldOf lists one field of every segment.
func fieldOf(segs []segStats, field func(segStats) float64) []float64 {
	xs := make([]float64, len(segs))
	for i, s := range segs {
		xs[i] = field(s)
	}
	return xs
}
