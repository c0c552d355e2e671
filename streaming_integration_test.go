// Streaming integration test at repository scope: a real HTTP daemon
// (the node cmd/serve runs, minus flag parsing and the listener) under
// concurrent ingest + predict load,
// asserting that predictions after a fold reflect the ingested deltas.
package viewstags_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"viewstags/internal/node"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
)

func postJSON(t *testing.T, client *http.Client, url string, req, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestStreamingIngestEndToEnd stands up the full serving stack with a
// fast-folding compactor, ingests a live stream for a distinctive new
// tag while readers keep predicting an old one, and asserts:
//  1. mid-stream reads are always coherent (200, known, sane shares);
//  2. several fold epochs complete under load;
//  3. after the folds, the ingested tag predicts to exactly the
//     distribution its events described — the acceptance criterion
//     "predictions after a fold reflect ingested deltas".
func TestStreamingIngestEndToEnd(t *testing.T) {
	res := testFixture(t)
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Start(context.Background(), nodeOptions(0, 1, 1, 10*time.Millisecond), &node.Base{Snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	acc := n.Acc
	ts := httptest.NewServer(n.Server.Handler())
	defer ts.Close()
	client := ts.Client()

	// Writers stream view events for one new tag with a fixed 80/20
	// JP/US geography; readers hammer predictions for a training-set
	// tag throughout.
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			code := postJSON(t, client, ts.URL+"/v1/ingest", server.IngestRequest{Events: []server.IngestEvent{
				{Video: fmt.Sprintf("live-%d", i), Tags: []string{"zz-integration"}, Country: "JP", Views: 80, Upload: true},
				{Video: fmt.Sprintf("live-%d", i), Tags: []string{"zz-integration"}, Country: "US", Views: 20},
			}}, nil)
			if code != http.StatusOK {
				t.Errorf("ingest round %d: status %d", i, code)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*3; i++ {
			var pr server.PredictResponse
			code := postJSON(t, client, ts.URL+"/v1/predict",
				server.PredictRequest{Tags: []string{"pop"}, Top: 3}, &pr)
			if code != http.StatusOK || pr.Result == nil || !pr.Result.Known {
				t.Errorf("read %d incoherent: code=%d %+v", i, code, pr.Result)
				return
			}
			for _, cs := range pr.Result.Top {
				if cs.Share < 0 || cs.Share > 1 {
					t.Errorf("read %d share out of range: %+v", i, cs)
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := n.Close(); err != nil { // the compactor's shutdown fold flushed the tail
		t.Fatal(err)
	}

	if acc.Epoch() < 2 {
		t.Fatalf("only %d fold epochs under the stream", acc.Epoch())
	}

	// The folded profile must reflect exactly what was ingested.
	var pr server.PredictResponse
	if code := postJSON(t, client, ts.URL+"/v1/predict",
		server.PredictRequest{Tags: []string{"zz-integration"}, Top: 2}, &pr); code != http.StatusOK {
		t.Fatalf("post-fold predict: %d", code)
	}
	if pr.Result == nil || !pr.Result.Known {
		t.Fatalf("ingested tag unknown after folds: %+v", pr)
	}
	if top := pr.Result.Top[0]; top.Country != "JP" || top.Share < 0.79 || top.Share > 0.81 {
		t.Fatalf("ingested geography not reflected: top=%+v, want JP at 0.8", top)
	}
	if second := pr.Result.Top[1]; second.Country != "US" || second.Share < 0.19 || second.Share > 0.21 {
		t.Fatalf("ingested geography not reflected: second=%+v, want US at 0.2", second)
	}

	// Bookkeeping: every round flagged one distinct upload, so the
	// corpus grew by exactly `rounds` records.
	var health struct {
		Records int    `json:"records"`
		Epoch   uint64 `json:"epoch"`
	}
	if code := func() int {
		resp, err := client.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}(); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Records != snap.Records()+rounds {
		t.Fatalf("records %d, want %d (+%d ingested uploads)", health.Records, snap.Records(), rounds)
	}
}
