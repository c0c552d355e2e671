package cluster

import (
	"math"
	"net/http"
	"testing"

	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// takeOneRow hands takeRows a hand-built reply frame as shard 0's
// answer to a one-tag fetch, the way predictFanout's gather step does,
// and returns the request's row for that tag and what the topology's
// cache holds for it afterwards. inFlight, when non-nil, runs between
// the request reading its view of the shard and the reply arriving.
func takeOneRow(t *testing.T, g *Gateway, tag string, frame []byte, inFlight func(*shardState)) (fe *replyError, row, cached *tagRow) {
	t.Helper()
	tp := g.topo.Load()
	m := g.getMerged(1, 1, len(tp.shards))
	defer g.putMerged(m)
	m.view[0] = shardView{ok: true, gen: tp.shards[0].gen.Load()}
	m.misses = append(m.misses[:0], missTag{tag: tag})
	m.missIdx[tag] = 0
	m.want[0] = append(m.want[0][:0], 0)
	m.fetched = true
	if inFlight != nil {
		inFlight(tp.shards[0])
	}
	fe = g.takeRows(tp, m, shardReply{shard: 0, status: http.StatusOK, body: frame}, new(server.PredictPartials), tagviews.WeightIDF)
	return fe, m.misses[0].row, tp.rows.get(tag, tagviews.WeightIDF)
}

// TestMergeSkipsNaNWeightSum: the codec transits a NaN weight sum as an
// absent row, so the gateway must take it as one, exactly like the
// encoder's `> 0` predicate — a NaN combined into an item would poison
// it (1/NaN normalization, NaN shares, a 200 with an unencodable body).
func TestMergeSkipsNaNWeightSum(t *testing.T) {
	_, g := startCluster(t, 3)
	enc := server.GetPredictWireEncoder()
	defer server.PutPredictWireEncoder(enc)
	enc.Begin(tagviews.WeightIDF, 1, 0, len(g.codes), 1, false)
	enc.Item(math.NaN(), nil)
	fe, row, cached := takeOneRow(t, g, "zz-nan", enc.Finish(), nil)
	if fe != nil {
		t.Fatalf("NaN-weight frame rejected: %+v", fe)
	}
	if row == nil || row.vec != nil || row.ws != 0 {
		t.Fatalf("NaN weight sum taken as a present row: %+v", row)
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
		enc.Begin(tagviews.WeightIDF, 1, 0, width, 1, false)
		sum := make([]float64, width)
		sum[0] = 1.5
		enc.Item(1.5, sum)
		fe, row, cached := takeOneRow(t, g, "zz-width", enc.Finish(), nil)
		server.PutPredictWireEncoder(enc)
		if fe == nil || fe.status != http.StatusBadGateway {
			t.Fatalf("width %d (table %d): %+v, want a 502 reply error", width, nC, fe)
		}
		if row != nil || cached != nil {
			t.Fatalf("width %d: rejected frame still produced a row (request %+v, cache %+v)", width, row, cached)
		}
	}
}
