package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"viewstags/internal/server"
)

// The tests boot no daemons: they cover the benchmark's own logic —
// what it declares, how it generates traffic, how it judges answers
// and how it does its arithmetic.

func testDataset(t *testing.T) *dataset {
	t.Helper()
	d, err := loadDataset()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// benchmarkFile mirrors BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// declared renders the Go tables in BENCHMARK.json's shape.
func declared() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: 12,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{m.name, m.unit, m.better})
	}
	return f
}

// TestDeclaredEqualsEmitted holds BENCHMARK.json to the tables the
// harness emits from, and the tables to the benchmark contract's
// limits. UPDATE_BENCHMARK_JSON=1 rewrites the file from the tables.
func TestDeclaredEqualsEmitted(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(declared(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if os.Getenv("UPDATE_BENCHMARK_JSON") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var got benchmarkFile
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	gotJSON, _ := json.MarshalIndent(got, "", "  ")
	if !bytes.Equal(append(gotJSON, '\n'), want) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; run UPDATE_BENCHMARK_JSON=1 go test -run TestDeclaredEqualsEmitted\nfile:\n%s\ntables:\n%s", gotJSON, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name("workload", w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	e2e := map[string]bool{}
	setup := false
	for _, m := range endToEnd {
		name("end-to-end metric", m.name)
		e2e[m.name] = true
		if !unitRE.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") || !(m.bound > 0 && m.bound <= 0.25) {
			t.Errorf("end-to-end metric %s: unit %q, better %q, bound %v", m.name, m.unit, m.better, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		name("per-layer metric", m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.name, m.unit, m.better)
		}
		if m.layer == "" || (m.source != "call" && m.source != "span" && m.source != "proc") {
			t.Errorf("per-layer metric %s: layer %q, source %q", m.name, m.layer, m.source)
		}
		// What a row should move is an end-to-end metric, or one of the
		// whole-system rows the contract keeps out of that list.
		target := e2e[m.moves.metric] || strings.HasPrefix(m.moves.metric, "e2e.") && seenLater(m.moves.metric)
		if _, ok := findWorkload(m.moves.workload); !ok || !target {
			t.Errorf("per-layer metric %s should move %s on %s, which is not declared", m.name, m.moves.metric, m.moves.workload)
		}
	}
}

// seenLater reports whether name is a declared per-layer row.
func seenLater(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func TestAssembleRejectsUndeclaredAndMissing(t *testing.T) {
	all := map[string]float64{}
	for _, m := range endToEnd {
		all[m.name] = 1
	}
	if _, err := assemble(endToEnd, all); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
	all["surprise"] = 1
	if _, err := assemble(endToEnd, all); err == nil {
		t.Error("an undeclared metric was emitted without complaint")
	}
	delete(all, "surprise")
	delete(all, "p50_ms")
	if _, err := assemble(endToEnd, all); err == nil {
		t.Error("a declared metric went missing without complaint")
	}
}

// TestStreamsDeterministic pins that the seed is the only workload
// input: same seed, same bytes and same read/write order.
func TestStreamsDeterministic(t *testing.T) {
	d := testDataset(t)
	for _, w := range workloads {
		a, err := genStreams(d, w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genStreams(d, w, 7)
		c, _ := genStreams(d, w, 8)
		if len(a) != callers {
			t.Fatalf("%s: %d streams, want %d", w.name, len(a), callers)
		}
		for i := range a {
			if !equalBodies(a[i].predict, b[i].predict) || !equalBodies(a[i].ingest, b[i].ingest) {
				t.Errorf("%s caller %d: same seed gave different streams", w.name, i)
			}
			if equalBodies(a[i].predict, c[i].predict) {
				t.Errorf("%s caller %d: different seeds gave the same predict stream", w.name, i)
			}
			if w.mixed && equalBodies(a[i].ingest, c[i].ingest) {
				t.Errorf("%s caller %d: different seeds gave the same ingest stream", w.name, i)
			}
			writes := 0
			for k := 0; k < 1000; k++ {
				if a[i].isIngest(k) != b[i].isIngest(k) {
					t.Fatalf("%s caller %d: interleave differs at op %d", w.name, i, k)
				}
				if a[i].isIngest(k) {
					writes++
				}
			}
			if want := map[bool]int{true: 200, false: 0}[w.mixed]; writes != want {
				t.Errorf("%s caller %d: %d writes in 1000 ops, want %d", w.name, i, writes, want)
			}
			if len(a[i].items[0]) != w.batch {
				t.Errorf("%s: batch of %d, want %d", w.name, len(a[i].items[0]), w.batch)
			}
		}
		if equalBodies(a[0].predict, a[1].predict) {
			t.Errorf("%s: both callers got the same stream", w.name)
		}
		if w.mixed && a[0].isIngest(4) == a[1].isIngest(4) {
			t.Errorf("%s: callers write in lockstep", w.name)
		}
	}
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	return equalReplies(a, b)
}

// TestVerifierCatchesPerturbedReply feeds the verifier the reference's
// own reply (accepted), then that reply damaged in each way a wrong
// server could damage it (each rejected).
func TestVerifierCatchesPerturbedReply(t *testing.T) {
	d := testDataset(t)
	ref, err := newReference(d)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload(nodeB4)
	streams, err := genStreams(d, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, d.res.World.N())
	// A body whose four items all differ, so that swapping two answers
	// is a real error.
	at := -1
	for i, items := range streams[0].items {
		distinct := map[string]bool{}
		for _, tags := range items {
			distinct[strings.Join(tags, ",")] = true
		}
		if len(distinct) == len(items) {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatal("no predict body with four different items")
	}
	items := streams[0].items[at]
	good, err := ref.expectedBody(streams[0].predict[at])
	if err != nil {
		t.Fatal(err)
	}
	good = append([]byte(nil), good...)
	if err := ref.checkPredict(good, items, buf); err != nil {
		t.Fatalf("the reference's own reply was rejected: %v", err)
	}
	if err := checkShape(good, w.batch); err != nil {
		t.Fatalf("the reference's own reply failed the shape check: %v", err)
	}
	damage := map[string]func(*server.PredictResponse){
		"share off by 1e-6":     func(r *server.PredictResponse) { r.Results[1].Top[0].Share += 1e-6 },
		"known flag flipped":    func(r *server.PredictResponse) { r.Results[0].Known = !r.Results[0].Known },
		"countries reordered":   func(r *server.PredictResponse) { tp := r.Results[2].Top; tp[0], tp[2] = tp[2], tp[0] },
		"wrong country":         func(r *server.PredictResponse) { r.Results[0].Top[2].Country = "ZZ" },
		"a result missing":      func(r *server.PredictResponse) { r.Results = r.Results[:3] },
		"top country withheld":  func(r *server.PredictResponse) { r.Results[3].Top = r.Results[3].Top[1:] },
		"negative share":        func(r *server.PredictResponse) { r.Results[0].Top[1].Share = -0.5 },
		"another item's answer": func(r *server.PredictResponse) { r.Results[0], r.Results[1] = r.Results[1], r.Results[0] },
	}
	for what, hurt := range damage {
		var resp server.PredictResponse
		if err := json.Unmarshal(good, &resp); err != nil {
			t.Fatal(err)
		}
		hurt(&resp)
		bad, _ := json.Marshal(&resp)
		if ref.checkPredict(bad, items, buf) == nil {
			t.Errorf("%s: accepted", what)
		}
		if sameReply(good, bad) == nil {
			t.Errorf("%s: judged the same reply as the original", what)
		}
	}
	// Within tolerance is still right: the gateway's digits differ in
	// the last places.
	var resp server.PredictResponse
	_ = json.Unmarshal(good, &resp)
	resp.Results[0].Top[0].Share += 1e-12
	near, _ := json.Marshal(&resp)
	if err := ref.checkPredict(near, items, buf); err != nil {
		t.Errorf("a share 1e-12 away was rejected: %v", err)
	}
	if err := sameReply(good, near); err != nil {
		t.Errorf("replies 1e-12 apart judged different: %v", err)
	}
	if checkAck([]byte(`{"accepted":3,"epoch":1,"pending":9}`), 4) == nil {
		t.Error("a short ack was accepted")
	}
	if err := checkAck([]byte(`{"accepted":4,"epoch":1,"pending":9}`), 4); err != nil {
		t.Errorf("a full ack was rejected: %v", err)
	}
}

// TestReferenceFoldsWhatItIsFed pins the mixed workloads' closing
// check: events applied to the reference change its predictions.
func TestReferenceFoldsWhatItIsFed(t *testing.T) {
	d := testDataset(t)
	ref, err := newReference(d)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload(gwMixed)
	streams, err := genStreams(d, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := ref.expectedBody(streams[0].predict[0])
	before = append([]byte(nil), before...)
	for _, events := range streams[0].events[:500] {
		if err := ref.apply(events); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.fold(); err != nil {
		t.Fatal(err)
	}
	after, _ := ref.expectedBody(streams[0].predict[0])
	if sameReply(before, after) == nil {
		t.Error("2 000 folded events left the reference's prediction unchanged")
	}
	buf := make([]float64, d.res.World.N())
	if ref.checkPredict(before, streams[0].items[0], buf) == nil {
		t.Error("a pre-fold reply still passes against the folded reference")
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1}, 2}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	thousand := make([]int64, 1000)
	for i := range thousand {
		thousand[i] = int64(i + 1)
	}
	for _, c := range []struct {
		xs   []int64
		p    float64
		want int64
	}{
		{nil, 0.5, 0}, {[]int64{7}, 0.99, 7}, {hundred, 0.50, 50}, {hundred, 0.99, 99}, {hundred, 1, 100},
		{thousand, 0.99, 990}, // exactly ten samples beyond it
		{[]int64{1, 2, 3}, 0.5, 2}, {[]int64{1, 2, 3, 4}, 0.5, 2},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7}, 3, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (iqr 5.5 over median 5.5)", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end int64
		children   []interval
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"one child", 0, 100, []interval{{10, 40}}, 70},
		{"disjoint", 0, 100, []interval{{60, 80}, {10, 40}}, 50},
		{"overlapping legs", 0, 100, []interval{{10, 50}, {12, 70}, {11, 30}}, 40},
		{"nested", 0, 100, []interval{{10, 90}, {20, 30}}, 20},
		{"child spills past the parent", 0, 100, []interval{{-10, 20}, {90, 130}}, 70},
		{"touching", 0, 100, []interval{{10, 20}, {20, 30}}, 80},
	} {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAnalyseSpans runs the span reduction over two hand-made gateway
// requests and one lone-node request.
func TestAnalyseSpans(t *testing.T) {
	us := func(x int64) int64 { return x * 1000 }
	var spans []spanRec
	gw := func(id string, base int64, legs [3][2]int64, shard int64) {
		spans = append(spans,
			spanRec{Trace: id, Name: spanClient, Start: us(base), End: us(base + 400)},
			spanRec{Trace: id, Name: spanGateway, Route: "/v1/predict", Start: us(base + 20), End: us(base + 380)})
		for i, l := range legs {
			spans = append(spans,
				spanRec{Trace: id, Name: spanLeg, Shard: i, Start: us(base + l[0]), End: us(base + l[1])},
				spanRec{Trace: id, Name: spanShard, Shard: i, Start: us(base + l[0] + 50), End: us(base + l[0] + 50 + shard)})
		}
	}
	gw("g-0-0", 0, [3][2]int64{{60, 260}, {70, 300}, {80, 240}}, 20)    // union 60..300 = 240, self 120
	gw("g-0-1", 1000, [3][2]int64{{40, 200}, {50, 340}, {60, 220}}, 20) // union 40..340 = 300, self 60
	spans = append(spans,
		spanRec{Trace: "n-0-0", Name: spanClient, Start: 0, End: us(100)},
		spanRec{Trace: "n-0-0", Name: spanServer, Route: "/v1/predict", Start: us(30), End: us(70)},
		spanRec{Trace: "g-0-2", Name: spanClient, Start: 0, End: us(100)}) // no handler span: dropped

	g := analyse(groupSpans(spans, "g-"), "/v1/predict")
	if g.requests != 2 || g.legsPerReq != 3 {
		t.Fatalf("gateway: %d requests, %v legs each", g.requests, g.legsPerReq)
	}
	for name, pair := range map[string][2]float64{
		"handler": {g.handlerUs, 360}, "client": {g.clientUs, 400}, "loopback": {g.loopbackUs, 40},
		"self": {g.selfUs, 90}, "slowest": {g.slowestUs, 260}, "leg": {g.legUs, 180},
		"hop": {g.hopUs, 160}, "shard": {g.shardUs, 20},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("gateway %s = %v us, want %v", name, pair[0], pair[1])
		}
	}
	// Slowest over mean leg: 230/(590/3) and 290/(610/3); median of two.
	if want := (230.0*3/590 + 290.0*3/610) / 2; math.Abs(g.legSkew-want) > 1e-9 {
		t.Errorf("leg skew %v, want %v", g.legSkew, want)
	}
	n := analyse(groupSpans(spans, "n-"), "/v1/predict")
	if n.requests != 1 || n.handlerUs != 40 || n.loopbackUs != 60 || n.legsPerReq != 0 {
		t.Errorf("node: %+v", n)
	}
	if other := analyse(groupSpans(spans, "g-"), "/v1/ingest"); other.requests != 0 {
		t.Errorf("route filter let %d requests through", other.requests)
	}
}

// TestSegments cuts hand-made samples into segments.
func TestSegments(t *testing.T) {
	d := &driver{epoch: time.Unix(0, 0)}
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	c := &callerState{}
	for i := int64(0); i < 100; i++ { // segment 0: 100 predicts, latencies 1..100 ms
		c.samples = append(c.samples, sample{end: ms(1000 + i), lat: ms(i + 1), items: 4})
	}
	c.samples = append(c.samples,
		sample{end: ms(500), lat: ms(1), items: 4},                          // before the window
		sample{end: ms(2100), lat: ms(2), items: 4},                         // segment 1
		sample{end: ms(2200), lat: ms(3), items: 4, failed: true},           // segment 1, failed
		sample{end: ms(2300), lat: ms(5), items: ingestBatch, ingest: true}, // segment 1, a write
		sample{end: ms(3000), lat: ms(1), items: 4},                         // past the window
	)
	d.callers = []*callerState{c}
	segs := d.segments(time.Unix(1, 0), time.Second, 2)
	if s := segs[0]; s.Requests != 100 || s.PredsPerS != 400 || s.P50Ms != 50 || s.P99Ms != 99 || s.Failed != 0 {
		t.Errorf("segment 0: %+v", s)
	}
	s := segs[1]
	if s.Requests != 2 || s.Ingests != 1 || s.Failed != 1 || s.PredsPerS != 4 || s.EventsPerS != ingestBatch {
		t.Errorf("segment 1 counts: %+v", s)
	}
	// The failed request sits in the population at the segment length.
	if s.P99Ms != 1000 || s.P50Ms != 2 || s.IngestP99Ms != 5 {
		t.Errorf("segment 1 latencies: %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "preds_per_s", better: "higher", bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 0.995, m * 1.005} }
	wide := func(m float64) []float64 { return []float64{m * 0.7, m * 0.8, m, m, m * 1.2, m * 1.3} }
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(1), tight(1), "within"},
		{"5% slower", lower, tight(1), tight(1.05), "within"},
		{"15% slower", lower, tight(1), tight(1.15), "worse"},
		{"15% faster", lower, tight(1), tight(0.85), "within"},
		{"throughput down 15%", higher, tight(100), tight(85), "worse"},
		{"throughput up 15%", higher, tight(100), tight(115), "within"},
		{"noisy, same median", lower, wide(1), wide(1), "unresolved"},
		{"noisy but every run better", lower, wide(1), tight(0.5), "within"},
		{"noisy and clearly worse", lower, wide(1), wide(1.5), "worse"},
	} {
		if _, got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareDirs(t *testing.T) {
	write := func(dir string, seed uint64, p50 float64) {
		rec := record{Workload: nodeB4, Seed: seed, Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"p50_ms": {Value: p50, Unit: "ms"}, "preds_per_s": {Value: 8 / p50, Unit: "preds/s"},
		}}
		raw, _ := json.Marshal(rec)
		if err := os.WriteFile(filepath.Join(dir, "run-"+nodeB4+"-t0-s"+strconv.FormatUint(seed, 10)+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	for seed := uint64(1); seed <= 4; seed++ {
		write(a, seed, 0.200+float64(seed)*0.001)
		write(b, seed, 0.300+float64(seed)*0.001)
	}
	var out bytes.Buffer
	if err := compareDirs(&out, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // header, preds_per_s, p50_ms
		t.Fatalf("want a header and two rows, got:\n%s", out.String())
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, nodeB4) || !strings.HasSuffix(line, "worse") {
			t.Errorf("row %q: want a %s row judged worse", line, nodeB4)
		}
	}
	if err := compareDirs(&out, a, t.TempDir()); err == nil {
		t.Error("an empty directory compared without complaint")
	}
}

// TestDependenciesStayNarrow keeps the benchmark off the packages,
// flags and switches that ROADMAP item 2 means to delete or merge, so
// a simplification never has to edit the benchmark: only the listed
// internal packages are imported, and only the listed daemon flags are
// passed.
func TestDependenciesStayNarrow(t *testing.T) {
	allowedImports := map[string]bool{}
	for _, p := range []string{"profilestore", "server", "cluster", "ingest", "persist", "obs", "pipeline",
		"tagviews", "synth", "geo", "xrand",
		"alexa", // pipeline.FromSynthetic takes the same alexa.DefaultConfig() cmd/serve passes
	} {
		allowedImports["viewstags/internal/"+p] = true
	}
	allowedFlags := map[string]bool{"-o": true} // go build
	for _, f := range []string{"addr", "videos", "seed", "shard", "shards", "data-dir", "ingest-interval",
		"checkpoint-every", "trace-dump-dir"} {
		allowedFlags["-"+f] = true
	}
	forbidden := []string{"WireKind", "WireJSON", "WireBinary", "ParseWire", "internal-wire", "CoalesceWindow"}
	flagRE := regexp.MustCompile(`^-[a-z][a-z-]*$`)

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "viewstags/") && !allowedImports[path] {
				t.Errorf("%s imports %s, which is not on the allow-list", file, path)
			}
		}
		if strings.HasSuffix(file, "_test.go") {
			continue // the lists above name the forbidden things
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				for _, bad := range forbidden {
					if x.Name == bad {
						t.Errorf("%s uses %s, which is slated for deletion", file, bad)
					}
				}
			case *ast.SelectorExpr:
				for _, bad := range forbidden {
					if x.Sel.Name == bad {
						t.Errorf("%s uses %s, which is slated for deletion", file, bad)
					}
				}
			case *ast.BasicLit:
				if x.Kind != token.STRING {
					return true
				}
				s, _ := strconv.Unquote(x.Value)
				if flagRE.MatchString(s) && !allowedFlags[s] {
					t.Errorf("%s passes flag %s, which is not on the allow-list", file, s)
				}
				for _, bad := range forbidden {
					if strings.Contains(s, bad) {
						t.Errorf("%s mentions %s", file, bad)
					}
				}
			}
			return true
		})
	}
}

// A daemon that ends before it is ready (a lost race for its port) is
// reported at once, not after the ready timeout, and the boot is tried
// again a bounded number of times; any other failure is final.
func TestBootRetriesOnlyAnEarlyExit(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{work: t.TempDir(), procs: map[*daemon]bool{}}
	// The test binary run with an unknown flag exits at once.
	d, err := e.spawn(self, "127.0.0.1:1", "-no-such-flag")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = d.waitReady(readyTimeout)
	if !errors.Is(err, errExited) || time.Since(start) > 10*time.Second {
		t.Fatalf("waitReady = %v after %s, want errExited at once", err, time.Since(start))
	}
	d.kill() // returns: the process has been waited for

	calls := 0
	_, err = retryBoot(func() (*topology, error) { calls++; return nil, err })
	if calls != bootAttempts || !errors.Is(err, errExited) {
		t.Fatalf("early exit: %d attempts, err %v", calls, err)
	}
	calls = 0
	other := errors.New("not ready")
	if _, err := retryBoot(func() (*topology, error) { calls++; return nil, other }); calls != 1 || err != other {
		t.Fatalf("other failure: %d attempts, err %v", calls, err)
	}
}

// Any 64-bit integer a caller can write is a seed.
func TestParseSeed(t *testing.T) {
	for arg, want := range map[string]uint64{"7": 7, "18446744073709551615": math.MaxUint64, "-1": math.MaxUint64} {
		if got, err := parseSeed(arg); err != nil || got != want {
			t.Errorf("parseSeed(%q) = %d, %v", arg, got, err)
		}
	}
	if _, err := parseSeed("x"); err == nil {
		t.Error("parseSeed accepted a non-number")
	}
}
