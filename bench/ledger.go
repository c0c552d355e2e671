package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/cluster"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/persist"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// The call ledger times the layers' public functions directly, in this
// process, on inputs drawn from the generated streams: one goroutine,
// a fixed iteration count, the median of ledgerRepeats repeats, and
// allocations from the runtime's malloc counter. These are counts and
// costs of one layer at a time — they say where a request's time can
// go, not how long a request takes.
const (
	ledgerRepeats = 5
	foldEvents    = 2500  // the fixed fold every fold-shaped row uses
	tailRecords   = 20000 // WAL records the replay row replays
)

var sink float64 // keeps timed results alive

// quietLogger swallows persist's recovery notes.
var quietLogger = log.New(io.Discard, "", 0)

// timeCalls runs f iters times per repeat and returns the median
// repeat's time per call in ns and mallocs per call.
func timeCalls(iters int, f func(i int)) (nsPerCall, allocsPerCall float64) {
	var ns, allocs []float64
	var ms runtime.MemStats
	for r := 0; r < ledgerRepeats; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for i := 0; i < iters; i++ {
			f(i)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(elapsed.Nanoseconds())/float64(iters))
		allocs = append(allocs, float64(ms.Mallocs-before)/float64(iters))
	}
	return median(ns), median(allocs)
}

// timeOnce times one call of f per repeat and returns the median in
// ms.
func timeOnce(repeats int, f func() error) (float64, error) {
	var ms []float64
	for r := 0; r < repeats; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// ledgerInputs are the generated inputs the ledger rows share.
type ledgerInputs struct {
	d      *dataset
	ref    *reference             // never fed events
	snap   *profilestore.Snapshot // the whole vocabulary
	third  *profilestore.Snapshot // shard 0's share of it
	b4     *callerStream          // caller 0 of the batch-4 stream (with ingest bodies)
	b32    *callerStream          // caller 0 of the batch-32 stream
	events []ingest.Event
	work   string // scratch directory for the persist rows
}

func runCallLedger(d *dataset, ref *reference, seed uint64, untraced *inproc, work string, out map[string]float64) error {
	mixed, _ := findWorkload(gwMixed)
	b32w, _ := findWorkload(gwB32)
	b4, err := genStreams(d, mixed, seed)
	if err != nil {
		return err
	}
	b32, err := genStreams(d, b32w, seed)
	if err != nil {
		return err
	}
	ring, err := cluster.NewRing(clusterShards, 0)
	if err != nil {
		return err
	}
	third, err := profilestore.BuildOwned(d.res.Analysis, func(name string) bool { return ring.Owns(name, 0) })
	if err != nil {
		return err
	}
	in := &ledgerInputs{d: d, ref: ref, snap: ref.store.Load(), third: third, b4: b4[0], b32: b32[0], work: work}
	world := d.res.World
	for _, batch := range in.b4.events {
		for _, e := range batch {
			c, _ := world.ByCode(e.Country) // codes come from this world
			in.events = append(in.events, ingest.Event{Video: e.Video, Tags: e.Tags, Country: c, Views: e.Views, Upload: e.Upload})
		}
		if len(in.events) >= foldEvents {
			break
		}
	}
	for _, part := range []func(*ledgerInputs, map[string]float64) error{
		ledgerProfilestore, ledgerServer, ledgerIngest, ledgerPersist, ledgerSmall,
	} {
		if err := part(in, out); err != nil {
			return err
		}
	}
	return ledgerGateway(in, untraced, out)
}

func ledgerProfilestore(in *ledgerInputs, out map[string]float64) error {
	an := in.d.res.Analysis
	buf := make([]float64, in.d.res.World.N())

	// Heap held by one snapshot: live heap with it minus live heap
	// without. Two collections each time, so pooled objects an earlier
	// part left behind are gone before the first reading.
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := liveHeap()
	built, err := profilestore.Build(an)
	if err != nil {
		return err
	}
	out["profilestore.snapshot_mb"] = (liveHeap() - before) / (1 << 20)
	runtime.KeepAlive(built)
	snap, third := in.snap, in.third

	if out["profilestore.build_ms"], err = timeOnce(ledgerRepeats, func() error {
		_, err := profilestore.Build(an)
		return err
	}); err != nil {
		return err
	}

	var items [][]string
	for _, its := range in.b32.items[:640] {
		items = append(items, its...)
	}
	ns, allocs := timeCalls(len(items), func(i int) {
		snap.PredictInto(buf, items[i], tagviews.WeightIDF)
		sink += buf[0]
	})
	out["profilestore.predict_ns_per_item"], out["profilestore.predict_allocs_per_item"] = ns, allocs

	out["profilestore.predict_partial_ns_per_item"], _ = timeCalls(len(items), func(i int) {
		sink += third.PredictPartialInto(buf, items[i], tagviews.WeightIDF)
	})

	deltas, newRecords, err := foldDeltas(snap, in.events)
	if err != nil {
		return err
	}
	if out["profilestore.rebuild_ms"], err = timeOnce(ledgerRepeats, func() error {
		_, err := profilestore.Rebuild(snap, deltas, newRecords)
		return err
	}); err != nil {
		return err
	}
	out["profilestore.export_import_ms"], err = timeOnce(ledgerRepeats, func() error {
		_, err := profilestore.FromData(snap.Export(), in.d.res.World)
		return err
	})
	return err
}

// foldDeltas accumulates the fixed fold's events against snap and
// drains them.
func foldDeltas(snap *profilestore.Snapshot, events []ingest.Event) ([]profilestore.TagDelta, int, error) {
	store, err := profilestore.NewStore(snap)
	if err != nil {
		return nil, 0, err
	}
	acc, err := ingest.NewAccumulator(store, 1<<30)
	if err != nil {
		return nil, 0, err
	}
	if err := acc.Add(events); err != nil {
		return nil, 0, err
	}
	deltas, n, _, _ := acc.Drain()
	return deltas, n, nil
}

// handlerCalls times h.ServeHTTP over pre-built requests (so request
// construction is not in the figure) with a writer that drops the body.
// Each repeat moves on through bodies, so none is sent twice.
func handlerCalls(h http.Handler, iters int, path, contentType string, bodies [][]byte) (usPerCall, allocsPerCall float64, err error) {
	reqs := make([]*http.Request, iters)
	w := &nullWriter{h: http.Header{}}
	var us, allocs []float64
	var ms runtime.MemStats
	for r := 0; r < ledgerRepeats; r++ {
		for i := range reqs {
			if reqs[i], err = http.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[(r*iters+i)%len(bodies)])); err != nil {
				return 0, 0, err
			}
			reqs[i].Header.Set("Content-Type", contentType)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for _, req := range reqs {
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				return 0, 0, fmt.Errorf("%s answered %d", path, w.status)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		us = append(us, float64(elapsed.Nanoseconds())/1e3/float64(iters))
		allocs = append(allocs, float64(ms.Mallocs-before)/float64(iters))
	}
	return median(us), median(allocs), nil
}

func ledgerServer(in *ledgerInputs, out map[string]float64) error {
	one, err := cluster.NewRing(1, 0)
	if err != nil {
		return err
	}
	node, stopNode, err := newServer(in.d, one, 0, 1)
	if err != nil {
		return err
	}
	defer stopNode()
	if out["server.predict_handler_us_b4"], out["server.predict_handler_allocs_b4"], err =
		handlerCalls(node.Handler(), 2000, "/v1/predict", "application/json", in.b4.predict); err != nil {
		return err
	}
	// The accumulator is attached with no journal, so this is the
	// handler plus Accumulator.Add. 2 000 bodies per repeat stay well
	// inside the stream, so no body is sent twice.
	if out["server.ingest_handler_us_b4"], _, err =
		handlerCalls(node.Handler(), 2000, "/v1/ingest", "application/json", in.b4.ingest); err != nil {
		return err
	}

	ring, err := cluster.NewRing(clusterShards, 0)
	if err != nil {
		return err
	}
	shard, stopShard, err := newServer(in.d, ring, 0, clusterShards)
	if err != nil {
		return err
	}
	defer stopShard()
	frames := func(s *callerStream) [][]byte {
		out := make([][]byte, len(s.items))
		for i, items := range s.items {
			out[i] = server.AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		}
		return out
	}
	if out["server.internal_handler_us_b4"], out["server.internal_handler_allocs_b4"], err =
		handlerCalls(shard.Handler(), 2000, "/internal/predict", server.WireContentType, frames(in.b4)); err != nil {
		return err
	}
	if out["server.internal_handler_us_b32"], _, err =
		handlerCalls(shard.Handler(), 1000, "/internal/predict", server.WireContentType, frames(in.b32)); err != nil {
		return err
	}
	return ledgerWire(in, out)
}

// ledgerWire times the binary gateway↔shard codec at batch 32 and
// counts the bytes per item on both wires.
func ledgerWire(in *ledgerInputs, out map[string]float64) error {
	const iters = 2000
	nC := in.d.res.World.N()
	items := in.b32.items
	reqBuf := server.AppendPredictRequest(nil, items[0], tagviews.WeightIDF, false)
	out["server.wire_req_encode_ns_b32"], _ = timeCalls(iters, func(i int) {
		reqBuf = server.AppendPredictRequest(reqBuf[:0], items[i%len(items)], tagviews.WeightIDF, false)
	})
	var decErr error
	out["server.wire_req_decode_ns_b32"], _ = timeCalls(iters, func(int) {
		if _, _, _, err := server.DecodePredictRequest(reqBuf); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}

	// A realistic reply slab: one shard's partial sums for the items.
	third := in.third
	batch := len(items[0])
	vecs := make([][]float64, batch)
	wsums := make([]float64, batch)
	for j := range vecs {
		vecs[j] = make([]float64, nC)
		wsums[j] = third.PredictPartialInto(vecs[j], items[0][j], tagviews.WeightIDF)
	}
	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	var frame []byte
	out["server.wire_resp_encode_ns_b32"], _ = timeCalls(iters, func(int) {
		enc.Begin(tagviews.WeightIDF, third.Records(), 1, nC, batch, false)
		for j := range vecs {
			enc.Item(wsums[j], vecs[j])
		}
		frame = enc.Finish()
	})
	frame = append([]byte(nil), frame...)
	var pp server.PredictPartials
	out["server.wire_resp_decode_ns_b32"], _ = timeCalls(iters, func(int) {
		if err := server.DecodePredictResponse(frame, &pp, batch, nC); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}
	out["server.wire_resp_bytes_per_item"] = float64(len(frame)) / float64(batch)

	edge, err := in.ref.expectedBody(in.b32.predict[0])
	if err != nil {
		return err
	}
	out["server.edge_json_bytes_per_item"] = float64(len(edge)) / float64(batch)
	return nil
}

func ledgerIngest(in *ledgerInputs, out map[string]float64) error {
	snap := in.snap
	store, err := profilestore.NewStore(snap)
	if err != nil {
		return err
	}
	acc, err := ingest.NewAccumulator(store, 1<<30)
	if err != nil {
		return err
	}
	events := in.events
	var add, drain, fold []float64
	var touched int
	for r := 0; r < ledgerRepeats; r++ {
		if _, err := store.Swap(snap); err != nil { // every repeat folds into the same base
			return err
		}
		start := time.Now()
		for i := 0; i+ingestBatch <= len(events); i += ingestBatch {
			if err := acc.Add(events[i : i+ingestBatch]); err != nil {
				return err
			}
		}
		added := time.Now()
		deltas, n, _, _ := acc.Drain()
		drained := time.Now()
		next, err := profilestore.Rebuild(store.Load(), deltas, n)
		if err != nil {
			return err
		}
		if _, err := store.Swap(next); err != nil {
			return err
		}
		done := time.Now()
		add = append(add, float64(added.Sub(start).Nanoseconds())/float64(len(events)))
		drain = append(drain, float64(drained.Sub(added).Nanoseconds())/1e6)
		fold = append(fold, float64(done.Sub(start).Nanoseconds())/1e6)
		touched = len(deltas)
	}
	out["ingest.add_ns_per_event"] = median(add)
	out["ingest.drain_ms"] = median(drain)
	out["ingest.fold_ms"] = median(fold)
	out["ingest.fold_touched_tags"] = float64(touched)
	return nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

func ledgerPersist(in *ledgerInputs, out map[string]float64) error {
	world := in.d.res.World
	snap := in.snap
	data := snap.Export()

	// WAL: append tailRecords 4-event batches (fsync never, the
	// shipping default), then replay them into a fresh accumulator the
	// way a recovering serve does.
	walDir, err := os.MkdirTemp(in.work, "wal-")
	if err != nil {
		return err
	}
	mgr, err := persist.Open(persist.Options{Dir: walDir, Logger: quietLogger})
	if err != nil {
		return err
	}
	if _, _, err := mgr.Replay(0, func([]ingest.Event, []string) error { return nil }); err != nil {
		return err // an empty journal, replayed because Append requires it
	}
	events := in.events
	start := time.Now()
	for i := 0; i < tailRecords; i++ {
		at := (i * ingestBatch) % (len(events) - ingestBatch)
		if err := mgr.Append(1, events[at:at+ingestBatch], nil); err != nil {
			return err
		}
	}
	out["persist.wal_append_us_per_record"] = float64(time.Since(start).Nanoseconds()) / 1e3 / tailRecords
	out["persist.wal_bytes_per_event"] = float64(mgr.Stats().WALBytes) / (tailRecords * ingestBatch)
	if err := mgr.Close(); err != nil {
		return err
	}
	replayMs, err := timeOnce(3, func() error {
		m, err := persist.Open(persist.Options{Dir: walDir, Logger: quietLogger})
		if err != nil {
			return err
		}
		store, err := profilestore.NewStore(snap)
		if err != nil {
			return err
		}
		acc, err := ingest.NewAccumulator(store, 1<<30)
		if err != nil {
			return err
		}
		_, applied, err := m.Replay(0, acc.Replay)
		if err == nil && applied != tailRecords {
			err = fmt.Errorf("replayed %d of %d WAL records", applied, tailRecords)
		}
		if cerr := m.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	out["persist.replay_us_per_record"] = replayMs * 1e3 / tailRecords

	// Checkpoints, in their own directory so saving prunes nothing above.
	ckptDir, err := os.MkdirTemp(in.work, "ckpt-")
	if err != nil {
		return err
	}
	ck, err := persist.Open(persist.Options{Dir: ckptDir, Logger: quietLogger})
	if err != nil {
		return err
	}
	gen := uint64(0)
	if out["persist.checkpoint_save_ms"], err = timeOnce(ledgerRepeats, func() error {
		gen++
		return ck.SaveCheckpoint(persist.CheckpointMeta{Gen: gen, Epoch: gen}, data)
	}); err != nil {
		return err
	}
	if out["persist.checkpoint_load_ms"], err = timeOnce(ledgerRepeats, func() error {
		_, _, found, err := ck.LoadCheckpoint(world)
		if err == nil && !found {
			err = fmt.Errorf("saved checkpoint not found")
		}
		return err
	}); err != nil {
		return err
	}
	var cw countingWriter
	if err := persist.WriteSnapshot(&cw, persist.CheckpointMeta{Gen: 1, Epoch: 1}, data); err != nil {
		return err
	}
	out["persist.checkpoint_mb"] = float64(cw.n) / (1 << 20)
	return ck.Close()
}

// ledgerSmall holds the rows that need no set-up to speak of.
func ledgerSmall(in *ledgerInputs, out map[string]float64) error {
	var h obs.Histogram
	out["obs.hist_observe_ns"], _ = timeCalls(1_000_000, func(i int) {
		h.Observe(time.Duration(i&0xffff) * time.Microsecond)
	})
	start := time.Now()
	tr := obs.GetTrace("bench", "/v1/predict", start)
	out["obs.span_add_ns"], _ = timeCalls(1_000_000, func(i int) {
		if i%8 == 0 { // a request's worth of spans, then a fresh trace
			obs.PutTrace(tr)
			tr = obs.GetTrace("bench", "/v1/predict", start)
		}
		tr.Add("predict", obs.NoShard, start, time.Microsecond, "")
	})
	obs.PutTrace(tr)

	ring, err := cluster.NewRing(clusterShards, 0)
	if err != nil {
		return err
	}
	names := in.d.res.Analysis.TagNames()
	owner := 0
	out["cluster.ring_owner_ns"], _ = timeCalls(len(names), func(i int) { owner += ring.Owner(names[i]) })
	sink += float64(owner)

	out["pipeline.run_ms"], err = timeOnce(3, func() error {
		_, err := pipeline.FromSynthetic(catalogVideos, catalogSeed, alexa.DefaultConfig())
		return err
	})
	return err
}

// ledgerGateway counts the mallocs one batch-4 predict costs through
// Gateway.Handler(), fan-out included: the three shard handlers run in
// this process too, so the process-wide counter sees all of it.
func ledgerGateway(in *ledgerInputs, p *inproc, out map[string]float64) error {
	_, allocs, err := handlerCalls(p.gateway.Handler(), 500, "/v1/predict", "application/json", in.b4.predict)
	out["cluster.gateway_allocs_b4"] = allocs
	return err
}
