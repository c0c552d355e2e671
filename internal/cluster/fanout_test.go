package cluster

import (
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"testing"

	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// takeOneRow hands takeRows a hand-built reply frame as shard 0's
// answer to a one-tag rows request, the way predictFanout's gather step
// does, and returns the request's row for that tag and what the topology's
// cache holds for it afterwards. inFlight, when non-nil, runs between
// the request reading its view of the shard and the reply arriving.
func takeOneRow(t *testing.T, g *Gateway, tag string, frame []byte, inFlight func(*shardState)) (fe *server.ErrorReply, row, cached *tagRow) {
	t.Helper()
	tp := g.topo.Load()
	if inFlight != nil {
		inFlight(tp.shards[0])
	}
	rows, fe := g.takeRows(tp, 0, []string{tag}, frame, new(server.PredictPartials))
	if fe == nil {
		row = &rows[0]
	}
	return fe, row, tp.rows.get(tag)
}

// shardZero is shard 0's version as the gateway holds it, stating
// records: a hand-built reply under it is as current as the slot.
func shardZero(g *Gateway, records int) server.ShardVersion {
	v := g.topo.Load().shards[0].version()
	v.Records = records
	return v
}

// TestMergeSkipsNaNWeightSum (the name predates weighting-free rows): the
// codec transits a NaN view total as an absent row, so the gateway must
// take it as one, exactly like the encoder's `> 0` predicate — a NaN
// combined into an item would poison it (1/NaN normalization, NaN shares,
// a 200 with an unencodable body).
func TestMergeSkipsNaNWeightSum(t *testing.T) {
	_, g := startCluster(t, 3)
	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	enc.BeginRows(shardZero(g, 1), len(g.codes), 1, false)
	enc.Row(math.NaN(), 0, nil)
	fe, row, cached := takeOneRow(t, g, "zz-nan", enc.Finish(), nil)
	if fe != nil {
		t.Fatalf("NaN-views frame rejected: %+v", fe)
	}
	if row == nil || row.vec != nil || row.views != 0 {
		t.Fatalf("NaN view total taken as a present row: %+v", row)
	}
	if cached != row {
		t.Fatal("the absent row was not cached as a negative")
	}
	code, resp := predictVia(t, g, server.PredictRequest{Tags: []string{"zz-nan"}})
	if code != http.StatusOK || resp.Result.Known {
		t.Fatalf("predict over the absent row: %d known=%v, want the prior fallback", code, resp.Result.Known)
	}
}

// TestMergeJSONRejectsWrongWidth (the name predates the single wire): a
// shard reply frame whose country count differs from the gateway's
// country-table width must be a 502, not an out-of-range panic (too
// long) or a silently short row (too short) — and none of it may reach
// the request or the cache.
func TestMergeJSONRejectsWrongWidth(t *testing.T) {
	_, g := startCluster(t, 3)
	nC := len(g.codes)
	for _, width := range []int{nC + 7, nC - 1} {
		enc := server.GetPredictWireEncoder()
		enc.BeginRows(shardZero(g, 1), width, 1, false)
		vec := make([]float64, width)
		vec[0] = 1
		enc.Row(1.5, 1, vec)
		fe, row, cached := takeOneRow(t, g, "zz-width", enc.Finish(), nil)
		server.PutPredictWireEncoder(enc)
		if fe == nil || fe.Status != http.StatusBadGateway {
			t.Fatalf("width %d (table %d): %+v, want a 502 reply error", width, nC, fe)
		}
		if row != nil || cached != nil {
			t.Fatalf("width %d: rejected frame still produced a row (request %+v, cache %+v)", width, row, cached)
		}
	}
	// A plain partials reply of the right width is no rows reply either.
	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	enc.Begin(tagviews.WeightIDF, 1, 0, nC, 1, false)
	enc.Item(1.5, make([]float64, nC))
	if fe, row, cached := takeOneRow(t, g, "zz-plain", enc.Finish(), nil); fe == nil || fe.Status != http.StatusBadGateway || row != nil || cached != nil {
		t.Fatalf("plain reply to a rows request: %+v (request %+v, cache %+v), want a 502 and no row", fe, row, cached)
	}
}

// TestTakeRowsAllocatesPerFrame: the rows of one frame share their
// allocations — one for the structs, one for the vectors — and takeRows
// copies no key (a request's fetch clones its own, a refresh pass hands
// back the cache's), so what a pass costs the heap is per frame, not per
// row.
func TestTakeRowsAllocatesPerFrame(t *testing.T) {
	_, g := startCluster(t, 3)
	const n = 512
	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	vec := make([]float64, len(g.codes)) // each row: views 2, one video, stored vector
	vec[0] = 1
	tags := make([]string, n)
	enc.BeginRows(shardZero(g, 1), len(g.codes), n, false)
	for j := range tags {
		tags[j] = fmt.Sprintf("zz-frame-%d", j)
		enc.Row(2, 1, vec)
	}
	frame := append([]byte(nil), enc.Finish()...)
	tp, pp := g.topo.Load(), new(server.PredictPartials)
	take := func() {
		if rows, fe := g.takeRows(tp, 0, tags, frame, pp); fe != nil || len(rows) != n {
			t.Fatalf("takeRows: %+v, %d rows", fe, len(rows))
		}
	}
	// Held rows are the case: the first frame grows the stripes' maps,
	// which are still settling under the second. The count is
	// process-wide, and a collection started by these very allocations
	// would add a few of its own.
	take()
	take()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, take)
	if allocs > 2 {
		t.Fatalf("a frame of %d rows costs %.0f allocations, want the two slabs", n, allocs)
	}
	if held := tp.rows.n.Load(); held != n {
		t.Fatalf("cache holds %d rows, want %d", held, n)
	}
}

// TestTakeRowsStoresTheIDFWeight: a row keeps WeightIDF.Weight of the
// reply's counts in place of the counts, so every row takeRows makes must
// weigh what Weight weighs over those counts, bit for bit, under all
// three weightings — zero videos, a corpus of none and the largest counts
// the wire carries included, and a view total that is not positive (zero,
// negative, NaN), which the codec transits as an absent row.
func TestTakeRowsStoresTheIDFWeight(t *testing.T) {
	_, g := startCluster(t, 3)
	vec := make([]float64, len(g.codes))
	vec[0] = 1
	rows := []struct {
		views  float64
		videos int
	}{
		{2, 1}, {7.5, 0}, {1e300, math.MaxUint32}, {5e-324, 3}, {math.Inf(1), 5},
		{0, 0}, {-1, 0}, {math.NaN(), 0},
	}
	tags := make([]string, len(rows))
	for j := range tags {
		tags[j] = fmt.Sprintf("zz-idf-%d", j)
	}
	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	for _, records := range []int{0, 1, 12345, math.MaxUint32} {
		enc.BeginRows(shardZero(g, records), len(g.codes), len(rows), false)
		for _, r := range rows {
			enc.Row(r.views, r.videos, vec)
		}
		got, fe := g.takeRows(g.topo.Load(), 0, tags, enc.Finish(), new(server.PredictPartials))
		if fe != nil {
			t.Fatalf("records %d: %+v", records, fe)
		}
		for j, r := range rows {
			for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
				want := w.Weight(r.views, r.videos, records)
				if have := got[j].weight(w); math.Float64bits(have) != math.Float64bits(want) {
					t.Errorf("records %d, views %v, videos %d, %v: row weighs %v, Weight %v", records, r.views, r.videos, w, have, want)
				}
			}
		}
	}
}
