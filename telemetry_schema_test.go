// Telemetry schema pin at repository scope: the key paths /v1/stats
// answers and the families /metrics exposes — name, type, HELP text and
// label names — of a durable node with ingest and of a gateway at R=2
// over three shards after a reshard, held against testdata. A change may
// add keys and families; losing, renaming or retyping one fails here.
// After an intended addition, rewrite the files with
//
//	go test -run TestTelemetrySchemaPinned -update .
//
// and check that their diff only adds lines.
package viewstags_test

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/persist"
	"viewstags/internal/server"
)

var update = flag.Bool("update", false, "rewrite the pinned files under testdata (telemetry/, lines.txt) from the current tree")

// startDurableNode is a standalone node as cmd/serve runs one with
// -data-dir, folding only when asked.
func startDurableNode(t *testing.T) *clusterNode {
	t.Helper()
	o := nodeOptions(0, 1, 1, time.Hour)
	o.DataDir = t.TempDir()
	b := fixtureBase(t, 0, 1, 1)
	var err error
	if b.Journal, err = persist.Open(persist.Options{Dir: o.DataDir}); err != nil {
		t.Fatal(err)
	}
	return startNode(t, o, b)
}

// TestTelemetrySchemaPinned: every /v1/stats key path and every /metrics
// family of both daemons, as the files under testdata/telemetry list them.
func TestTelemetrySchemaPinned(t *testing.T) {
	node := startDurableNode(t)
	defer node.stop()
	client := node.ts.Client()
	events := []server.IngestEvent{{Video: "pin-v", Tags: []string{"zz-pin", "pop"}, Country: "BR", Views: 40, Upload: true}}
	if code := postJSON(t, client, node.ts.URL+"/v1/predict", server.PredictRequest{Tags: []string{"pop"}, Top: 3}, nil); code != http.StatusOK {
		t.Fatalf("node predict: status %d", code)
	}
	if code := postJSON(t, client, node.ts.URL+"/v1/ingest", server.IngestRequest{Events: events}, nil); code != http.StatusOK {
		t.Fatalf("node ingest: status %d", code)
	}
	if code := postJSON(t, client, node.ts.URL+"/v1/checkpoint", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("node checkpoint: status %d", code)
	}
	pinTelemetry(t, client, node.ts.URL, "node")

	// R=2 over two shards, grown to three: the handoff record exists.
	rt := startReshardTier(t, 2, 2)
	grown := []string{rt.nodes[0].ts.URL, rt.nodes[1].ts.URL, rt.addNode(t, 2, 3, 2).ts.URL}
	var rr cluster.ReshardResponse
	if code := postJSON(t, rt.client, rt.gw.URL+"/v1/reshard", cluster.ReshardRequest{Targets: grown}, &rr); code != http.StatusOK {
		t.Fatalf("POST /v1/reshard: status %d (%+v)", code, rr)
	}
	rt.ingest(t, 1, events...)
	rt.fold()
	if code := postJSON(t, rt.client, rt.gw.URL+"/v1/predict", server.PredictRequest{Tags: []string{"zz-pin", "pop"}, Top: 3}, nil); code != http.StatusOK {
		t.Fatalf("gateway predict: status %d", code)
	}
	pinTelemetry(t, rt.client, rt.gw.URL, "gateway")
}

// pinTelemetry compares one daemon's flattened surfaces with
// testdata/telemetry/<name>_{stats,metrics}.txt.
func pinTelemetry(t *testing.T, client *http.Client, base, name string) {
	t.Helper()
	var stats any
	if code := getJSON(t, client, base+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("%s GET /v1/stats: status %d", name, code)
	}
	paths := map[string]bool{}
	flattenJSON("", stats, paths)
	checkPinned(t, name+"_stats.txt", paths)
	checkPinned(t, name+"_metrics.txt", metricFamilies(scrape(t, client, base)))
}

// flattenJSON records the key path of every leaf under v: objects join
// keys with ".", arrays add "[]" whatever their length.
func flattenJSON(path string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			if path != "" {
				k = path + "." + k
			}
			flattenJSON(k, e, out)
		}
	case []any:
		for _, e := range v {
			flattenJSON(path+"[]", e, out)
		}
	default:
		out[path] = true
	}
}

// metricFamilies lists an exposition's families, one line each: name,
// type, sorted label names (le excluded) and HELP text.
func metricFamilies(exposition string) map[string]bool {
	help, typ := map[string]string{}, map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typ[name] = kind
			continue
		}
		if line == "" {
			continue
		}
		series := line[:strings.IndexByte(line, ' ')]
		name, set, _ := strings.Cut(series, "{")
		if typ[name] == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); typ[base] == "histogram" {
					name = base
				}
			}
		}
		if labels[name] == nil {
			labels[name] = map[string]bool{}
		}
		for _, pair := range strings.Split(strings.TrimSuffix(set, "}"), ",") {
			if l, _, ok := strings.Cut(pair, "="); ok && l != "le" {
				labels[name][l] = true
			}
		}
	}
	out := map[string]bool{}
	for name, kind := range typ {
		var names []string
		for l := range labels[name] {
			names = append(names, l)
		}
		sort.Strings(names)
		out[fmt.Sprintf("%s %s {%s} %s", name, kind, strings.Join(names, ","), help[name])] = true
	}
	return out
}

// checkPinned holds a set of lines against a testdata file, or rewrites
// the file under -update.
func checkPinned(t *testing.T, file string, got map[string]bool) {
	t.Helper()
	lines := make([]string, 0, len(got))
	for l := range got {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	path := filepath.Join("testdata", "telemetry", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		want[l] = true
	}
	for _, l := range lines {
		if !want[l] {
			t.Errorf("%s: new line %q (run with -update if intended)", path, l)
		}
	}
	for l := range want {
		if !got[l] {
			t.Errorf("%s: lost line %q", path, l)
		}
	}
}
