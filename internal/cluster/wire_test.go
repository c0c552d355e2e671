package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"viewstags/internal/ring"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// TestGatewayWireEquivalence is the wire acceptance test: shards behind
// a gateway answer float-identically (share for share) to a single full
// node — the compact codec is a transport change, never an arithmetic one.
func TestGatewayWireEquivalence(t *testing.T) {
	res := fixture(t)
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := startNode(t, ringOne, 0, 1)
	nodes, _ := startCluster(t, 3)
	targets := make([]string, len(nodes))
	for i, n := range nodes {
		targets[i] = n.ts.URL
	}
	gateways := map[string]*Gateway{
		"binary": newSyncedGateway(t, targets, nil),
	}

	nC := res.World.N()
	cases := [][]string{
		{"favela", "samba"},
		{"pop"},
		{"pop", "music", "favela", "zz-unknown"},
		{"zz-unknown-a", "zz-unknown-b"}, // prior fallback
		res.Analysis.TagNames()[:30],     // spans all shards with rank discounts
	}
	for _, weighting := range []string{"uniform", "by-views", "idf"} {
		for ci, tags := range cases {
			var want server.PredictResponse
			req := server.PredictRequest{Tags: tags, Weighting: weighting, Top: nC}
			if code := post(t, full.ts.URL+"/v1/predict", req, &want); code != http.StatusOK {
				t.Fatalf("single-node predict: %d", code)
			}
			wantShares := sharesOf(want.Result.Top)
			for name, g := range gateways {
				code, got := predictVia(t, g, req)
				if code != http.StatusOK {
					t.Fatalf("%s wire predict: %d", name, code)
				}
				if got.Result.Known != want.Result.Known {
					t.Fatalf("%s wire w=%s case %d: known %v vs %v", name, weighting, ci, got.Result.Known, want.Result.Known)
				}
				gotShares := sharesOf(got.Result.Top)
				if len(gotShares) != len(wantShares) {
					t.Fatalf("%s wire w=%s case %d: %d countries vs %d", name, weighting, ci, len(gotShares), len(wantShares))
				}
				for country, share := range wantShares {
					if gotShares[country] != share {
						t.Fatalf("%s wire w=%s case %d %s: %v, single %v", name, weighting, ci, country, gotShares[country], share)
					}
				}
			}
		}
	}

	// Batched requests take the same path, one row per item.
	batchReq := server.PredictRequest{Top: 5}
	for _, tags := range cases {
		batchReq.Batch = append(batchReq.Batch, server.PredictItem{Tags: tags})
	}
	var want server.PredictResponse
	if code := post(t, full.ts.URL+"/v1/predict", batchReq, &want); code != http.StatusOK {
		t.Fatalf("single-node batch: %d", code)
	}
	for name, g := range gateways {
		code, got := predictVia(t, g, batchReq)
		if code != http.StatusOK || len(got.Results) != len(want.Results) {
			t.Fatalf("%s wire batch: code=%d %d results, want %d", name, code, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			ws, gs := sharesOf(want.Results[i].Top), sharesOf(got.Results[i].Top)
			for country, share := range ws {
				if gs[country] != share {
					t.Fatalf("%s wire batch item %d %s: %v, single %v", name, i, country, gs[country], share)
				}
			}
		}
	}
}

// TestInternalPredictContentNegotiation pins the shard-side codec
// contract: a binary-content-typed POST gets a binary reply (mirroring
// the request's CRC choice), any other content type is a 415, and a
// corrupt binary body is a 400 — both with the JSON error envelope, not
// a panic, not a hung connection.
func TestInternalPredictContentNegotiation(t *testing.T) {
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := startNode(t, ringOne, 0, 1)
	items := [][]string{{"pop", "music"}, {"zz-nobody"}}

	for _, crc := range []bool{false, true} {
		frame := server.AppendPredictRequest(nil, items, tagviews.WeightIDF, crc)
		resp, err := http.Post(n.ts.URL+"/internal/predict", server.WireContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("crc=%v: status %d: %s", crc, resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != server.WireContentType {
			t.Fatalf("crc=%v: binary request answered with %q", crc, ct)
		}
		var pp server.PredictPartials
		if err := server.DecodePredictResponse(raw, &pp, 64, 1<<12); err != nil {
			t.Fatalf("crc=%v: undecodable binary reply: %v", crc, err)
		}
		if pp.NItems != len(items) {
			t.Fatalf("crc=%v: %d partials for %d items", crc, pp.NItems, len(items))
		}
		// The reply mirrors the request's integrity choice: flags bit 0
		// right after the 8-byte magic.
		if gotCRC := raw[8]&1 == 1; gotCRC != crc {
			t.Fatalf("request crc=%v answered with reply crc=%v", crc, gotCRC)
		}
		if pp.WSums[0] <= 0 || pp.WSums[1] != 0 {
			t.Fatalf("partials arithmetic: wsums %v (known tag must carry mass, unknown none)", pp.WSums[:2])
		}
	}

	// Anything else — here the JSON body the route once also took — is a
	// 415, and a corrupt binary frame a 400; both carry the JSON error
	// envelope.
	for _, tc := range []struct {
		name, contentType string
		body              []byte
		want              int
	}{
		{"JSON body", "application/json", []byte(`{"items":[["pop"]],"weighting":"idf"}`), http.StatusUnsupportedMediaType},
		{"corrupt frame", server.WireContentType, []byte("VTIPRQ01 garbage"), http.StatusBadRequest},
	} {
		resp, err := http.Post(n.ts.URL+"/internal/predict", tc.contentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		_ = resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if err != nil || e.Error == "" {
			t.Fatalf("%s: no JSON error envelope (%v, %q)", tc.name, err, e.Error)
		}
	}
}

// TestPredictRejectsOversizedTag pins the uniform MaxTagLen contract:
// a tag too long for the binary wire's decoder is a 400 at every edge
// — gateway, single-node public, shard-internal frame — so no request
// one edge accepts can bounce off another's decoder mid-fan-out.
func TestPredictRejectsOversizedTag(t *testing.T) {
	ringOne, err := ring.New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := startNode(t, ringOne, 0, 1)
	_, g := startCluster(t, 3)
	long := string(make([]byte, server.MaxTagLen+1))

	if code, _ := predictVia(t, g, server.PredictRequest{Tags: []string{"pop", long}}); code != http.StatusBadRequest {
		t.Fatalf("gateway accepted an oversized tag: %d", code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := post(t, n.ts.URL+"/v1/predict", server.PredictRequest{Tags: []string{long}}, &e); code != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("public predict accepted an oversized tag: %d %q", code, e.Error)
	}
	frame := server.AppendPredictRequest(nil, [][]string{{long}}, tagviews.WeightIDF, false)
	resp, err := http.Post(n.ts.URL+"/internal/predict", server.WireContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("internal predict accepted an oversized tag: %d", resp.StatusCode)
	}
}
