package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// tolerance is how far a served share may sit from the reference's:
// the gateway adds the same partial sums in a different order, so its
// digits may differ in the last places but never by this much.
const tolerance = 1e-9

// reference is the in-process single node every served answer is
// checked against: the same catalog, built into one whole-vocabulary
// snapshot, predicted with Snapshot.PredictInto.
type reference struct {
	d       *dataset
	store   *profilestore.Store
	acc     *ingest.Accumulator
	handler http.Handler
	code    map[string]int
}

func newReference(d *dataset) (*reference, error) {
	snap, err := profilestore.Build(d.res.Analysis)
	if err != nil {
		return nil, err
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.DefaultConfig(), store)
	if err != nil {
		return nil, err
	}
	srv.SetReady()
	acc, err := ingest.NewAccumulator(store, 1<<30)
	if err != nil {
		return nil, err
	}
	r := &reference{d: d, store: store, acc: acc, handler: srv.Handler(), code: map[string]int{}}
	for i, c := range d.codes {
		r.code[c] = i
	}
	return r, nil
}

// expectedBody is the reference node's own reply to a predict body. A
// served reply equal to it byte for byte needs no further checking.
func (r *reference) expectedBody(body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	w := &captureWriter{h: http.Header{}}
	r.handler.ServeHTTP(w, req)
	if w.status != 0 && w.status != http.StatusOK {
		return nil, fmt.Errorf("reference answered %d: %s", w.status, w.buf.Bytes())
	}
	return w.buf.Bytes(), nil
}

// apply feeds acked ingest events to the reference, and fold installs
// them, so after a mixed run the reference holds exactly what the
// system under test was told.
func (r *reference) apply(events []server.IngestEvent) error {
	world := r.d.res.World
	evs := make([]ingest.Event, len(events))
	for i, e := range events {
		c, ok := world.ByCode(e.Country)
		if !ok {
			return fmt.Errorf("unknown country %q", e.Country)
		}
		evs[i] = ingest.Event{Video: e.Video, Tags: e.Tags, Country: c, Views: e.Views, Upload: e.Upload}
	}
	return r.acc.Add(evs)
}

func (r *reference) fold() error {
	deltas, n, _, _ := r.acc.Drain()
	next, err := profilestore.Rebuild(r.store.Load(), deltas, n)
	if err != nil {
		return err
	}
	_, err = r.store.Swap(next)
	return err
}

// checkPredict compares one served /v1/predict reply with the
// reference: every item's known flag, every returned share to
// tolerance, and that the returned countries are the reference's top
// ones in order. buf is scratch of world size.
func (r *reference) checkPredict(reply []byte, items [][]string, buf []float64) error {
	var resp server.PredictResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	if len(resp.Results) != len(items) {
		return fmt.Errorf("%d results for %d items", len(resp.Results), len(items))
	}
	snap := r.store.Load()
	for i, res := range resp.Results {
		known := snap.PredictInto(buf, items[i], tagviews.WeightIDF)
		if res.Known != known {
			return fmt.Errorf("item %d: known=%v, reference says %v", i, res.Known, known)
		}
		if err := r.checkTop(res.Top, buf); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// topK is the number of countries every generated predict asks for.
const topK = 3

// checkTop checks a returned top-k list against the full reference
// vector. Fewer than topK countries is a right answer only when the
// reference gives no other country any share (a tag first seen in one
// ingested event has all its mass in one country).
func (r *reference) checkTop(top []server.CountryShare, want []float64) error {
	if len(top) < 1 || len(top) > topK {
		return fmt.Errorf("%d countries returned, asked for %d", len(top), topK)
	}
	returned := map[int]bool{}
	lowest := math.Inf(1)
	for k, cs := range top {
		c, ok := r.code[cs.Country]
		if !ok {
			return fmt.Errorf("unknown country %q", cs.Country)
		}
		if d := math.Abs(cs.Share - want[c]); !(d <= tolerance) {
			return fmt.Errorf("%s share %.12g, reference %.12g", cs.Country, cs.Share, want[c])
		}
		if k > 0 && cs.Share > top[k-1].Share+tolerance {
			return fmt.Errorf("shares not in descending order")
		}
		returned[c] = true
		lowest = math.Min(lowest, cs.Share)
	}
	if len(top) < topK {
		lowest = 0
	}
	for c, x := range want {
		if !returned[c] && x > lowest+tolerance {
			return fmt.Errorf("%s (%.12g) outranks a returned country", r.d.codes[c], x)
		}
	}
	return nil
}

// checkShape is the in-flight check on mixed workloads, where folds
// move the served state under the run: the reply must still be a
// well-formed answer for every item. Exact equality is checked on
// those workloads before the run and again after the last fold.
func checkShape(reply []byte, nItems int) error {
	var resp server.PredictResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	if len(resp.Results) != nItems {
		return fmt.Errorf("%d results for %d items", len(resp.Results), nItems)
	}
	for i, res := range resp.Results {
		if len(res.Top) < 1 || len(res.Top) > topK {
			return fmt.Errorf("item %d: %d countries returned, asked for %d", i, len(res.Top), topK)
		}
		for k, cs := range res.Top {
			if !(cs.Share >= 0 && cs.Share <= 1+tolerance) || (k > 0 && cs.Share > res.Top[k-1].Share+tolerance) {
				return fmt.Errorf("item %d: shares %v are not a descending distribution", i, res.Top)
			}
		}
	}
	return nil
}

// sameReply compares two served /v1/predict replies — a probe answer
// before a crash and after recovery: same known flags, same countries
// in the same order, shares equal to tolerance.
func sameReply(a, b []byte) error {
	if bytes.Equal(a, b) {
		return nil
	}
	var ra, rb server.PredictResponse
	if err := json.Unmarshal(a, &ra); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	if len(ra.Results) != len(rb.Results) {
		return fmt.Errorf("%d results against %d", len(ra.Results), len(rb.Results))
	}
	for i := range ra.Results {
		x, y := ra.Results[i], rb.Results[i]
		if x.Known != y.Known || len(x.Top) != len(y.Top) {
			return fmt.Errorf("item %d: known %v/%v, %d/%d countries", i, x.Known, y.Known, len(x.Top), len(y.Top))
		}
		for k := range x.Top {
			if x.Top[k].Country != y.Top[k].Country || !(math.Abs(x.Top[k].Share-y.Top[k].Share) <= tolerance) {
				return fmt.Errorf("item %d: %v against %v", i, x.Top[k], y.Top[k])
			}
		}
	}
	return nil
}

// checkAck checks an ingest acknowledgement: every event accepted.
func checkAck(reply []byte, sent int) error {
	var ack server.IngestResponse
	if err := json.Unmarshal(reply, &ack); err != nil {
		return fmt.Errorf("undecodable ack: %w", err)
	}
	if ack.Accepted != sent {
		return fmt.Errorf("accepted %d of %d events", ack.Accepted, sent)
	}
	return nil
}

// captureWriter and nullWriter are the cheapest ResponseWriters: the
// first keeps the body, the second drops it so a timed handler call
// pays for the handler alone.
type captureWriter struct {
	h      http.Header
	buf    bytes.Buffer
	status int
}

func (w *captureWriter) Header() http.Header         { return w.h }
func (w *captureWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *captureWriter) WriteHeader(code int)        { w.status = code }

type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }
