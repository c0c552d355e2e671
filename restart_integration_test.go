package viewstags_test

import (
	"net/http"
	"testing"
	"time"

	"viewstags/internal/server"
)

// TestGatewayRestartMidIngest restarts the gateway of a 3-shard tier, in
// process and over the same targets, while the shards hold acked events
// none of them has folded. The gateway holds no write state of its own,
// so the restarted one syncs, takes more writes, and after the folds
// answers like a single node fed the same batches, on the training
// vocabulary and on the ingested tags.
//
// What it does not cover: the tier's shape lives in the gateway's memory
// and its -shards list, not on the shards. A gateway restarted after a
// reshard with the targets it was first started with does not come back
// over the ring the reshard committed: the shards identify under the new
// ring, so its sync is refused until someone passes it the new list.
func TestGatewayRestartMidIngest(t *testing.T) {
	res := testFixture(t)
	tr := newTier(t, 3, 1, time.Hour) // nothing folds until settle
	tr.opts.Gateway.HealthInterval = time.Hour
	tr.RestartGateway(t, tr.urls())

	tags := []string{"zz-rst-a", "zz-rst-b", "zz-rst-c"}
	tr.ingest(t, 10,
		server.IngestEvent{Video: "rst", Tags: tags, Country: "KR", Views: 60, Upload: true},
		server.IngestEvent{Video: "rst", Tags: tags, Country: "BR", Views: 40})
	assertSamePrediction(t, tr.client, tr.single.ts.URL, tr.gw.URL, []string{tags[0], "pop"})
	var pending int64
	for i, n := range tr.nodes {
		if n.acc.Epoch() != 0 {
			t.Fatalf("shard %d folded before the restart (epoch %d)", i, n.acc.Epoch())
		}
		pending += n.acc.Stats().Pending
	}
	if pending == 0 {
		t.Fatal("no shard holds an unfolded event at the restart")
	}

	tr.RestartGateway(t, tr.urls())
	assertSamePrediction(t, tr.client, tr.single.ts.URL, tr.gw.URL, []string{tags[0], "pop"})
	tr.ingest(t, 10,
		server.IngestEvent{Video: "rst2", Tags: []string{tags[1], "zz-rst-d"}, Country: "US", Views: 90, Upload: true},
		server.IngestEvent{Video: "rst2", Tags: []string{tags[1], "zz-rst-d"}, Country: "JP", Views: 10})
	tr.settle()
	for _, tag := range []string{tags[0], "zz-rst-d"} {
		var pr server.PredictResponse
		if code := postJSON(t, tr.client, tr.gw.URL+"/v1/predict", server.PredictRequest{Tags: []string{tag}}, &pr); code != http.StatusOK || pr.Result == nil || !pr.Result.Known {
			t.Fatalf("ingested tag %s through the restarted gateway: status %d, %+v, want it known", tag, code, pr.Result)
		}
	}

	assertSamePrediction(t, tr.client, tr.single.ts.URL, tr.gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, tr.client, tr.single.ts.URL, tr.gw.URL, res.Analysis.TagNames()[:40])
	assertSamePrediction(t, tr.client, tr.single.ts.URL, tr.gw.URL, []string{tags[0]})
	assertSamePrediction(t, tr.client, tr.single.ts.URL, tr.gw.URL, []string{tags[1], "zz-rst-d", "pop"})
	assertSamePrediction(t, tr.client, tr.single.ts.URL, tr.gw.URL, []string{tags[2], "favela"})
}
