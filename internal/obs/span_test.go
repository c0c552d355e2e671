package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRecordAllocs(t *testing.T) {
	tr := GetTrace(NewRequestID(), "/v1/predict", time.Now())
	defer PutTrace(tr)
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		tr.n = 0
		tr.Add("fanout", 2, start, time.Millisecond, "")
		tr.Add("merge", NoShard, start, 200, "")
	})
	if allocs != 0 {
		t.Fatalf("span record allocates %.1f/op, want 0", allocs)
	}
}

func TestTraceSpanCapAndView(t *testing.T) {
	start := time.Now()
	tr := GetTrace("abc", "/v1/predict", start)
	for i := 0; i < MaxSpans+5; i++ {
		tr.Add("stage", NoShard, start.Add(time.Duration(i)), time.Microsecond, "")
	}
	tr.End(200, false, 3*time.Millisecond)
	v := tr.view()
	if len(v.Spans) != MaxSpans || v.Dropped != 5 {
		t.Fatalf("spans=%d dropped=%d, want %d and 5", len(v.Spans), v.Dropped, MaxSpans)
	}
	if v.ID != "abc" || v.Status != 200 || v.DurNs != (3*time.Millisecond).Nanoseconds() {
		t.Fatalf("view identity wrong: %+v", v)
	}
	if _, err := json.Marshal(v); err != nil {
		t.Fatal(err)
	}
	PutTrace(tr)
}

// TestTraceIDMemberMatch pins that there is no member matching: a trace
// answers for its own id and for nothing else, however the id reads.
func TestTraceIDMemberMatch(t *testing.T) {
	tr := GetTrace("aaa,bbb,ccc", "/internal/predict", time.Now())
	if !tr.idMatches("aaa,bbb,ccc") {
		t.Error("a trace must match its own id")
	}
	for _, not := range []string{"aaa", "bbb", "ccc", "aa", "aaa,bbb", "ddd", ""} {
		if tr.idMatches(not) {
			t.Errorf("idMatches(%q) = true, want false", not)
		}
	}
	PutTrace(tr)
}

func offerTrace(s *TraceStore, id, route string, status int, shed bool, dur time.Duration) bool {
	tr := GetTrace(id, route, time.Now())
	tr.Add("handler", NoShard, tr.start, dur, "")
	tr.End(status, shed, dur)
	return s.Offer(tr)
}

func TestTraceStoreTailSampling(t *testing.T) {
	s := NewTraceStore(64)
	if !offerTrace(s, "err-1", "/v1/predict", 500, false, time.Millisecond) {
		t.Fatal("errored trace must be retained")
	}
	if !offerTrace(s, "shed-1", "/v1/predict", 503, true, time.Microsecond) {
		t.Fatal("shed trace must be retained")
	}
	// Fill the slow window with fast traces, then offer a slow one: it
	// must make the per-route slowest-K cut.
	for i := 0; i < 200; i++ {
		offerTrace(s, fmt.Sprintf("fast-%d", i), "/v1/predict", 200, false, 10*time.Microsecond)
	}
	if !offerTrace(s, "slow-1", "/v1/predict", 200, false, 2*time.Second) {
		t.Fatal("slowest trace must be retained")
	}
	if _, ok := s.Get("err-1"); !ok {
		t.Fatal("Get(err-1) lost")
	}
	got := s.List(TraceFilter{Route: "/v1/predict", Status: "error", Limit: 10})
	if len(got) < 2 {
		t.Fatalf("error filter returned %d traces, want >= 2", len(got))
	}
	slow := s.List(TraceFilter{MinDur: time.Second})
	if len(slow) != 1 || slow[0].ID != "slow-1" {
		t.Fatalf("MinDur filter = %+v, want just slow-1", slow)
	}
	shed := s.List(TraceFilter{Status: "shed"})
	if len(shed) != 1 || shed[0].ID != "shed-1" {
		t.Fatalf("shed filter = %+v, want just shed-1", shed)
	}
	if n := s.Len(); n == 0 || n > 64*len(s.shards) {
		t.Fatalf("retained count %d out of bounds", n)
	}
}

// TestTraceStoreSlowKeysBoundedByRoutes: the per-route slowest-K state is
// one entry per route label per ring shard, forever. Callers label a
// trace with a route pattern out of a fixed table, never a raw path, and
// this is the bound that buys: R labels leave at most R keys a shard.
func TestTraceStoreSlowKeysBoundedByRoutes(t *testing.T) {
	s := NewTraceStore(8)
	routes := []string{"/v1/predict", "/v1/ingest", "/v1/tags", "unmatched"}
	for i := 0; i < 5000; i++ {
		offerTrace(s, fmt.Sprintf("id-%d", i), routes[i%len(routes)], 200, false, time.Duration(i)*time.Microsecond)
	}
	for i := range s.shards {
		if n := len(s.shards[i].slow); n == 0 || n > len(routes) {
			t.Fatalf("ring shard %d holds %d slow-window keys for %d route labels", i, n, len(routes))
		}
	}
}

// TestTraceStoreMemberLookup pins that Get is an exact lookup in the one
// store shard its id hashes to: a piece of a stored id finds nothing, and
// a miss takes no other shard's lock — every other shard is held locked
// for the whole call, so a Get that scanned them would hang the test.
func TestTraceStoreMemberLookup(t *testing.T) {
	s := NewTraceStore(16)
	tr := GetTrace("m1,m2,m3", "/internal/predict", time.Now())
	tr.End(200, false, 5*time.Second) // slow: retained
	if !s.Offer(tr) {
		t.Fatal("slow trace must be retained")
	}
	if v, ok := s.Get("m1,m2,m3"); !ok || v.ID != "m1,m2,m3" {
		t.Fatalf("exact lookup = %+v ok=%v", v, ok)
	}
	const unknown = "m2"
	home := s.shardFor(unknown)
	for i := range s.shards {
		if sh := &s.shards[i]; sh != home {
			sh.mu.Lock()
			defer sh.mu.Unlock()
		}
	}
	if v, ok := s.Get(unknown); ok {
		t.Fatalf("a piece of a stored id found %+v", v)
	}
}

// TestTraceStoreRecordVsScrapeRace mirrors
// TestHistogramObserveVsScrapeRace for the trace ring: many goroutines
// record and offer traces while /debug/traces-shaped reads (List, Get,
// Dump) run concurrently. -race is the assertion; the reads also
// marshal to catch a view that aliases pooled memory.
func TestTraceStoreRecordVsScrapeRace(t *testing.T) {
	s := NewTraceStore(32)
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				id := fmt.Sprintf("w%d-%d", w, i)
				tr := GetTrace(id, "/v1/predict", time.Now())
				tr.Add("handler", NoShard, tr.start, time.Duration(i%1000)*time.Microsecond, "")
				status := 200
				if i%17 == 0 {
					status = 500
				}
				tr.End(status, i%29 == 0, time.Duration(i%1000)*time.Microsecond)
				s.Offer(tr)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		views := s.List(TraceFilter{Limit: 16})
		for _, v := range views {
			if _, err := json.Marshal(v); err != nil {
				t.Fatalf("scrape %d: %v", i, err)
			}
			if !strings.HasPrefix(v.ID, "w") {
				t.Fatalf("scrape %d: corrupt id %q", i, v.ID)
			}
		}
		s.Get("w0-1")
		if i%20 == 0 {
			s.Dump()
		}
	}
	close(stop)
	wg.Wait()
}

func TestExemplars(t *testing.T) {
	var e Exemplars
	now := time.Now()
	e.Observe(3*time.Millisecond, "req-a", now)
	e.Observe(90*time.Second, "req-b", now)
	top := e.Top(4)
	if len(top) != 2 {
		t.Fatalf("Top = %d exemplars, want 2", len(top))
	}
	if top[0].RequestID != "req-b" || top[1].RequestID != "req-a" {
		t.Fatalf("Top order wrong: %+v", top)
	}
	if top[0].Seconds != 90 {
		t.Fatalf("exemplar seconds = %v, want 90", top[0].Seconds)
	}
	// The longest id the middleware honours is stored whole.
	full := strings.Repeat("0123456789abcdef", exemplarIDCap/16)
	if len(full) != MaxRequestIDLen {
		t.Fatalf("exemplar slot holds %d bytes, MaxRequestIDLen is %d", len(full), MaxRequestIDLen)
	}
	e.Observe(time.Second, full, now)
	if ex := e.Top(8); len(ex) != 3 || ex[1].RequestID != full {
		t.Fatalf("a %d-byte id was not stored whole: %+v", len(full), ex)
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Observe(time.Millisecond, full, now) })
	if allocs != 0 {
		t.Fatalf("Exemplars.Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestExemplarExposition(t *testing.T) {
	var h Histogram
	var e Exemplars
	now := time.Now()
	h.Observe(5 * time.Millisecond)
	e.Observe(5*time.Millisecond, "req-x", now)
	w := NewTextWriter()
	w.Histogram("ex_test_seconds", "exemplar carrier", []Label{{Name: "route", Value: "predict"}}, h.Snapshot(), e.Top(4)...)
	out := w.Bytes()
	if !strings.Contains(string(out), `# {request_id="req-x"} 0.005`) {
		t.Fatalf("exemplar missing from exposition:\n%s", out)
	}
	if err := Validate(out); err != nil {
		t.Fatalf("exposition with exemplar failed validation: %v", err)
	}
}

func TestValidateRejectsBadExemplars(t *testing.T) {
	for _, bad := range []string{
		// Exemplar on a non-bucket sample.
		"# TYPE g gauge\ng 1 # {request_id=\"x\"} 0.5\n",
		// Exemplar value above the bucket's le.
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 1 # {request_id=\"x\"} 0.5\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.01\nh_count 1\n",
		// Malformed exemplar labels.
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace=\"x\"} 0.5\nh_sum 0.01\nh_count 1\n",
	} {
		if err := Validate([]byte(bad)); err == nil {
			t.Errorf("Validate accepted bad exemplar exposition:\n%s", bad)
		}
	}
}

func TestWriteBuildInfo(t *testing.T) {
	w := NewTextWriter()
	WriteBuildInfo(w, Label{Name: "ring_signature", Value: "abc123"})
	out := string(w.Bytes())
	for _, want := range []string{"viewstags_build_info{", `ring_signature="abc123"`, "go_version=", "process_start_time_seconds "} {
		if !strings.Contains(out, want) {
			t.Errorf("build info exposition missing %q:\n%s", want, out)
		}
	}
	if err := Validate(w.Bytes()); err != nil {
		t.Fatal(err)
	}
}
