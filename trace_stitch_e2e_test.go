// Cross-process trace stitching at repository scope: a real 3-shard
// tier behind a real gateway, with one shard fronted by a delay proxy,
// asserting that GET /debug/traces/{id} on the gateway (a) retains the
// slow request, (b) carries per-shard fan-out leg spans whose worst leg
// points at the delayed shard, (c) stays sum-consistent with the edge
// latency histogram, and (d) stitches the shard-side span view on —
// each of two concurrent requests to its own legs and no one else's.
package viewstags_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"viewstags/internal/faultproxy"
	"viewstags/internal/obs"
	"viewstags/internal/ring"
	"viewstags/internal/server"
)

// getStitched fetches one stitched trace off the gateway.
func getStitched(t *testing.T, client *http.Client, base, id string) (*server.StitchedTrace, int) {
	t.Helper()
	resp, err := client.Get(base + "/debug/traces/" + id)
	if err != nil {
		t.Fatalf("GET /debug/traces/%s: %v", id, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var st server.StitchedTrace
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stitched trace %s: %v", id, err)
	}
	return &st, resp.StatusCode
}

// spanByName returns the first span with the name, nil when absent.
func spanByName(spans []obs.Span, name string) *obs.Span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// promSum extracts one `<name>{...} <value>` sample from an exposition,
// matching on the full name+labels prefix.
func promSum(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no sample %q", prefix)
	return 0
}

// legTags returns a predict body's tag list that costs one leg to every
// one of the ring's shards: two vocabulary tags, then one tag owned by each
// shard that no request with another label has asked for — the gateway
// answers from the rows it holds, so only a tag it has not resolved yet
// makes the leg these tests are about.
func legTags(rg *ring.Ring, shards int, label string) string {
	owned := make([]string, shards)
	for found, i := 0, 0; found < len(owned); i++ {
		tag := "zz-" + label + "-" + strconv.Itoa(i)
		if s := rg.Owner(tag); owned[s] == "" {
			owned[s] = tag
			found++
		}
	}
	return `"pop","music","` + strings.Join(owned, `","`) + `"`
}

// TestTraceStitchEndToEnd drives a predict through a cluster whose
// shard 1 sits behind a 50ms delay proxy and checks the stitched trace
// blames exactly that leg.
func TestTraceStitchEndToEnd(t *testing.T) {
	const shards = 3
	const delay = 50 * time.Millisecond
	foldEvery := 50 * time.Millisecond
	rg, err := ring.New(shards, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTier(t, shards, 1, foldEvery)
	// Front shard 1 with the chaos harness's delay proxy: the shard
	// itself stays fast, so a correct stitch shows a slow gateway-side
	// leg over a fast shard-side handler — the "network or proxy, not
	// the shard" triage signature from OPERATIONS.md.
	targets := tr.urls()
	proxy, err := faultproxy.New(targets[1])
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	targets[1] = proxy.URL()
	tr.opts.Gateway.HealthInterval = 20 * time.Millisecond
	tr.RestartGateway(t, targets)
	gw, client := tr.gw, tr.client
	proxy.SetDelay(delay)

	// label picks the cold tags: requests sharing a label share them.
	post := func(id, label string) {
		t.Helper()
		body := strings.NewReader(`{"tags":[` + legTags(rg, shards, label) + `],"top":3}`)
		req, err := http.NewRequest(http.MethodPost, gw.URL+"/v1/predict", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.TraceHeader, id)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s: status %d", id, resp.StatusCode)
		}
	}

	const slowID = "stitch-e2e-slow1"
	post(slowID, "slow")

	st, code := getStitched(t, client, gw.URL, slowID)
	if code != http.StatusOK {
		t.Fatalf("gateway did not retain %s: status %d (tail sampling must keep the slowest per route)", slowID, code)
	}
	if st.ID != slowID || st.Route != "/v1/predict" || st.Status != http.StatusOK {
		t.Fatalf("stitched trace header wrong: id=%q route=%q status=%d", st.ID, st.Route, st.Status)
	}
	for _, name := range []string{"decode", "fanout", "merge", "encode", "handler"} {
		if spanByName(st.Spans, name) == nil {
			t.Errorf("gateway trace missing %q span; spans: %+v", name, st.Spans)
		}
	}

	// Per-shard legs: one per shard, and the delayed shard's leg is both
	// absolutely slow (>= 80% of the injected delay) and the worst.
	legs := make(map[int]*obs.Span)
	var worst *obs.Span
	for i := range st.Spans {
		sp := &st.Spans[i]
		if sp.Name != "shard" {
			continue
		}
		legs[sp.Shard] = sp
		if worst == nil || sp.DurNs > worst.DurNs {
			worst = sp
		}
	}
	if len(legs) != shards {
		t.Fatalf("got fan-out legs for shards %v, want all %d", legs, shards)
	}
	slowLeg := legs[1]
	if slowLeg.DurNs < int64(delay)*8/10 {
		t.Errorf("delayed shard leg = %v, want >= ~%v", time.Duration(slowLeg.DurNs), delay)
	}
	if worst.Shard != 1 {
		t.Errorf("worst leg attributes to shard %d, want the delayed shard 1", worst.Shard)
	}

	// Span timings nest: every leg fits inside the fanout stage, and the
	// whole trace covers its spans.
	fanout := spanByName(st.Spans, "fanout")
	if slowLeg.DurNs > fanout.DurNs {
		t.Errorf("slow leg (%v) exceeds its fanout stage (%v)", time.Duration(slowLeg.DurNs), time.Duration(fanout.DurNs))
	}
	if fanout.DurNs > st.DurNs {
		t.Errorf("fanout stage (%v) exceeds the trace (%v)", time.Duration(fanout.DurNs), time.Duration(st.DurNs))
	}

	// The mirror case: the same request again is answered from the rows
	// the first one fetched — resolve, combine, encode, and no leg, so
	// the delayed shard costs it nothing.
	post(slowID+"-again", "slow")
	warm, code := getStitched(t, client, gw.URL, slowID+"-again")
	if code != http.StatusOK {
		t.Fatalf("gateway did not retain the repeated request: status %d", code)
	}
	for _, name := range []string{"decode", "merge", "encode"} {
		if spanByName(warm.Spans, name) == nil {
			t.Errorf("repeated request's trace missing %q span; spans: %+v", name, warm.Spans)
		}
	}
	for _, name := range []string{"shard", "fanout", "failover"} {
		if sp := spanByName(warm.Spans, name); sp != nil {
			t.Errorf("repeated request still made a leg: %+v", sp)
		}
	}
	if warm.DurNs >= int64(delay)*8/10 {
		t.Errorf("repeated request took %v behind a %v proxy it should not have touched", time.Duration(warm.DurNs), delay)
	}

	// Sum-consistency with the edge histogram: the predict route's
	// latency sum must cover the slow request the trace describes.
	resp, err := client.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	histSum := promSum(t, string(text), `viewstags_request_duration_seconds_sum{route="predict"}`)
	if traceSecs := float64(st.DurNs) / 1e9; histSum < traceSecs*0.9 {
		t.Errorf("edge histogram sum %.4fs does not cover the retained trace (%.4fs)", histSum, traceSecs)
	}

	// The stitch reached shard 1 through the proxy and got its span
	// view: the shard-side handler ran fast (the delay lives in front of
	// it), which is exactly what pins the slowness on the link.
	var shardView *server.ShardTraceView
	for i := range st.Shards {
		if st.Shards[i].Shard == 1 {
			shardView = &st.Shards[i]
		}
	}
	if shardView == nil {
		t.Fatalf("stitched view has no entry for shard 1: %+v", st.Shards)
	}
	if shardView.Trace == nil {
		t.Fatalf("shard 1 trace not stitched (error %q)", shardView.Error)
	}
	if spanByName(shardView.Trace.Spans, "predict") == nil {
		t.Errorf("shard 1 stitched trace has no predict span: %+v", shardView.Trace.Spans)
	}
	if handler := spanByName(shardView.Trace.Spans, "handler"); handler != nil && handler.DurNs > slowLeg.DurNs {
		t.Errorf("shard-side handler (%v) slower than the gateway leg (%v)?", time.Duration(handler.DurNs), time.Duration(slowLeg.DurNs))
	}

	// ?stitch=0 must skip the cross-process fetch.
	respFlat, err := client.Get(gw.URL + "/debug/traces/" + slowID + "?stitch=0")
	if err != nil {
		t.Fatal(err)
	}
	var flat server.StitchedTrace
	if err := json.NewDecoder(respFlat.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	_ = respFlat.Body.Close()
	if len(flat.Shards) != 0 {
		t.Errorf("?stitch=0 still stitched %d shard views", len(flat.Shards))
	}

	// Two concurrent predicts each run their own fan-out, so a shard
	// retains one trace per request under exactly that request's id —
	// the stitch must hand each id its own legs.
	idA, idB := "stitch-e2e-aaaa", "stitch-e2e-bbbb"
	var wg sync.WaitGroup
	for _, id := range []string{idA, idB} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			post(id, id)
		}(id)
	}
	wg.Wait()
	for _, id := range []string{idA, idB} {
		stitched, code := getStitched(t, client, gw.URL, id)
		if code != http.StatusOK {
			t.Fatalf("gateway did not retain %s: status %d", id, code)
		}
		own := 0
		for _, sv := range stitched.Shards {
			if sv.Trace == nil {
				continue
			}
			if sv.Trace.ID != id {
				t.Errorf("shard %d trace stitched onto %s carries id %q", sv.Shard, id, sv.Trace.ID)
			}
			own++
		}
		if own == 0 {
			t.Fatalf("no shard-side trace stitched for %s: %+v", id, stitched.Shards)
		}
	}

	// The list endpoint orders slowest-first and retained the slow
	// request. Which id is literally slowest can shift on a loaded box
	// (the concurrent pair above also rode the delayed proxy), so pin
	// the ordering contract, not a winner.
	var lst server.TracesListResponse
	respList, err := client.Get(gw.URL + "/debug/traces?route=/v1/predict&limit=64")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(respList.Body).Decode(&lst); err != nil {
		t.Fatal(err)
	}
	_ = respList.Body.Close()
	if len(lst.Traces) == 0 {
		t.Fatal("trace list returned no retained predicts")
	}
	found := false
	for i, tv := range lst.Traces {
		if i > 0 && tv.DurNs > lst.Traces[i-1].DurNs {
			t.Errorf("trace list not slowest-first: %d ns at [%d] after %d ns", tv.DurNs, i, lst.Traces[i-1].DurNs)
		}
		if tv.ID == slowID {
			found = true
		}
	}
	if !found {
		t.Errorf("slow request %s missing from the retained predict list", slowID)
	}
}
