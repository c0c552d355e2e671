package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTextWriterRoundTrip(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	w := NewTextWriter()
	w.Counter("demo_requests_total", "Requests, with a \\ and\nnewline in help.")
	w.Sample("demo_requests_total", []Label{{Name: "route", Value: "predict"}}, 42)
	w.Sample("demo_requests_total", []Label{{Name: "route", Value: `od"d\value`}}, 1)
	w.Gauge("demo_in_flight", "In-flight requests.")
	w.Sample("demo_in_flight", nil, 3)
	w.HistogramFamily("demo_duration_seconds", "Latency.")
	w.Histogram("demo_duration_seconds", []Label{{Name: "route", Value: "predict"}}, h.Snapshot())
	out := w.Bytes()
	if err := Validate(out); err != nil {
		t.Fatalf("own output fails validation: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"# TYPE demo_requests_total counter",
		"# TYPE demo_duration_seconds histogram",
		`demo_requests_total{route="predict"} 42`,
		`le="+Inf"`,
		"demo_duration_seconds_count{route=\"predict\"} 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
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
	// The resident-memory gauges ride with the runtime families exactly
	// where the kernel reports them, and are omitted — not zero — elsewhere.
	rss, peak, ok := ResidentMemory()
	for _, name := range []string{"process_resident_memory_bytes", "viewstags_process_peak_rss_bytes"} {
		if has := strings.Contains(string(w.Bytes()), "\n"+name+" "); has != ok {
			t.Errorf("%s present=%v, /proc/self/status readable=%v", name, has, ok)
		}
	}
	if ok && (rss < 1<<20 || peak < rss) {
		t.Errorf("resident %d bytes, peak %d: want at least a megabyte and peak >= resident", rss, peak)
	}
}
