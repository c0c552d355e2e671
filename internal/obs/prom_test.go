package obs

import (
	"strings"
	"testing"
	"time"
)

// demoRoute and demoStats are a miniature of the daemons' stats
// snapshots: a labelled group of routes, a slice, a family over labelled
// leaves, a bool, and the fields the JSON omits.
type demoRoute struct {
	Requests int64   `json:"requests" prom:"demo_requests_total,counter" help:"Requests, with a \\ and\nnewline in help."`
	MeanMs   float64 `json:"mean_ms"`
}

type demoCauses struct {
	Epoch int64 `json:"epoch" prom:"cause"`
	Down  int64 `json:"down" prom:"cause"`
}

type demoShard struct {
	Index   int        `json:"index"`
	Up      bool       `json:"healthy" prom:"demo_shard_up,gauge" help:"1 when up."`
	Stale   demoCauses `json:"stale" prom:"demo_stale_total,counter" help:"Stale rows by cause."`
	Skipped int64      `json:"skipped,omitempty" prom:"demo_skipped_total,counter" help:"Omitted at zero."`
}

type demoStats struct {
	Predict  demoRoute   `json:"predict" prom:"route"`
	Odd      demoRoute   `json:"od\"d\\value" prom:"route"`
	InFlight int         `json:"in_flight" prom:"demo_in_flight,gauge" help:"In-flight requests."`
	Hits     int64       `json:"hits" prom:"demo_lookups_total,counter,result=hit" help:"Lookups."`
	Misses   int64       `json:"misses" prom:"demo_lookups_total,counter,result=miss"`
	Shards   []demoShard `json:"shards" prom:"shard"`
	Handoff  *demoRoute  `json:"handoff,omitempty"`
	Note     string      `json:"note"`
}

func TestTextWriterRoundTrip(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	w := NewTextWriter()
	w.Encode(demoStats{
		Predict: demoRoute{Requests: 42}, Odd: demoRoute{Requests: 1}, InFlight: 3, Hits: 5, Misses: 2,
		Shards: []demoShard{{Up: true, Stale: demoCauses{Epoch: 4}}, {Index: 1, Skipped: 7}},
	}, Label{Name: "zone", Value: "a"})
	w.Histogram("demo_duration_seconds", "Latency.", []Label{{Name: "route", Value: "predict"}}, h.Snapshot())
	// A second series of a family already written still lands in its group.
	w.Encode(struct {
		InFlight int `prom:"demo_in_flight,gauge"`
	}{9}, Label{Name: "zone", Value: "b"})
	out := w.Bytes()
	if err := Validate(out); err != nil {
		t.Fatalf("own output fails validation: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"# HELP demo_requests_total Requests, with a \\\\ and\\nnewline in help.\n# TYPE demo_requests_total counter\n",
		"# TYPE demo_duration_seconds histogram",
		`demo_requests_total{route="predict",zone="a"} 42`,
		`demo_requests_total{route="od\"d\\value",zone="a"} 1`,
		"demo_in_flight{zone=\"a\"} 3\ndemo_in_flight{zone=\"b\"} 9\n",
		`demo_lookups_total{result="hit",zone="a"} 5`,
		`demo_lookups_total{result="miss",zone="a"} 2`,
		`demo_shard_up{shard="0",zone="a"} 1`,
		`demo_shard_up{shard="1",zone="a"} 0`,
		`demo_stale_total{cause="epoch",shard="0",zone="a"} 4`,
		`demo_stale_total{cause="down",shard="1",zone="a"} 0`,
		`demo_skipped_total{shard="1",zone="a"} 7`,
		`le="+Inf"`,
		"demo_duration_seconds_count{route=\"predict\"} 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Omitted with the JSON: shard 0's zero omitempty field, the nil pointer.
	for _, absent := range []string{`demo_skipped_total{shard="0"`, "mean_ms", "handoff", "note"} {
		if strings.Contains(text, absent) {
			t.Errorf("exposition carries %q, which the JSON omits or was never tagged:\n%s", absent, text)
		}
	}
	// The le label must interleave sorted with route: l < r.
	if !strings.Contains(text, `demo_duration_seconds_bucket{le="`) {
		t.Error("le must sort before route in bucket labels")
	}
	// Sum in seconds: 1..100ms sums to 5.05s.
	if !strings.Contains(text, "demo_duration_seconds_sum{route=\"predict\"} 5.05") {
		t.Errorf("histogram _sum not in seconds:\n%s", text)
	}
}

func TestTextWriterRefusesRetypedFamily(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a family redeclared with another type did not panic")
		}
	}()
	w := NewTextWriter()
	w.Encode(struct {
		N int `prom:"demo_n,counter"`
	}{1})
	w.Encode(struct {
		N int `prom:"demo_n,gauge"`
	}{1})
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"undeclared family":  "no_type_metric 1\n",
		"duplicate TYPE":     "# TYPE a counter\n# TYPE a counter\na 1\n",
		"unsorted labels":    "# TYPE a counter\na{z=\"1\",b=\"2\"} 1\n",
		"duplicate label":    "# TYPE a counter\na{b=\"1\",b=\"2\"} 1\n",
		"duplicate series":   "# TYPE a counter\na{b=\"1\"} 1\na{b=\"1\"} 2\n",
		"unparsable value":   "# TYPE a counter\na bogus\n",
		"unknown type":       "# TYPE a cntr\na 1\n",
		"bucket without le":  "# TYPE a histogram\na_bucket{route=\"x\"} 1\n",
		"shrinking buckets":  "# TYPE a histogram\na_bucket{le=\"1\"} 5\na_bucket{le=\"2\"} 3\n",
		"le not increasing":  "# TYPE a histogram\na_bucket{le=\"2\"} 1\na_bucket{le=\"1\"} 2\n",
		"count != +Inf":      "# TYPE a histogram\na_bucket{le=\"+Inf\"} 5\na_sum 1\na_count 7\n",
		"declared unsampled": "# TYPE a counter\n",
		"split family":       "# TYPE a counter\n# TYPE b counter\nb 1\na 1\n",
		"second block":       "# TYPE a counter\na{x=\"1\"} 1\n# TYPE b gauge\nb 1\n# HELP a again\na{x=\"2\"} 1\n",
	}
	for name, exposition := range cases {
		if err := Validate([]byte(exposition)); err == nil {
			t.Errorf("%s: Validate accepted malformed exposition:\n%s", name, exposition)
		}
	}
}

func TestValidateAcceptsRuntimeFamilies(t *testing.T) {
	w := NewTextWriter()
	WriteGoRuntime(w)
	if err := Validate(w.Bytes()); err != nil {
		t.Fatalf("runtime families fail validation: %v\n%s", err, w.Bytes())
	}
	if rss, peak, ok := ResidentMemory(); ok && (rss < 1<<20 || peak < rss) {
		t.Errorf("resident %d bytes, peak %d: want at least a megabyte and peak >= resident", rss, peak)
	}
}
