package server

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPprofHandlerServesIndex smoke-tests the operator-only profiling
// surface: the index answers with the profile listing, and a profile
// endpoint actually streams data.
func TestPprofHandlerServesIndex(t *testing.T) {
	ts := httptest.NewServer(pprofHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("/debug/pprof/ index does not list profiles:\n%s", body)
	}
	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: status %d", resp.StatusCode)
	}
}

// TestStartPprofAnswersOnItsOwnPort boots the real -pprof-addr path on
// an ephemeral port, parses the advertised address out of the log line
// (the same line an operator reads), and fetches the index from it.
func TestStartPprofAnswersOnItsOwnPort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf strings.Builder
	logger := log.New(&buf, "", 0)
	if err := StartPprof(ctx, "127.0.0.1:0", logger); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`pprof listening on (http://[^/\s]+)`).FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("no listen line in log: %q", buf.String())
	}
	var resp *http.Response
	var err error
	for i := 0; i < 50; i++ {
		resp, err = http.Get(m[1] + "/debug/pprof/")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("GET %s/debug/pprof/: %v", m[1], err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

// TestServingMuxHasNoPprof pins the isolation property: the serving
// mux must not expose /debug/pprof/ — heap dumps stay on the operator
// port.
func TestServingMuxHasNoPprof(t *testing.T) {
	_, srv := fixture(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ on the serving mux: status %d, want 404", resp.StatusCode)
	}
}

// TestHeapSamplingFor pins both states of a daemon's heap sampling: left
// at the runtime's rate when -pprof-addr names a listener to read the
// profile from, off when nobody could.
func TestHeapSamplingFor(t *testing.T) {
	rate := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = rate }()
	runtime.MemProfileRate = 512 * 1024 // the runtime's default, whatever flags this test binary got
	HeapSamplingFor("127.0.0.1:6060")
	if runtime.MemProfileRate != 512*1024 {
		t.Errorf("with -pprof-addr set: MemProfileRate = %d, want the default left alone", runtime.MemProfileRate)
	}
	HeapSamplingFor("")
	if runtime.MemProfileRate != 0 {
		t.Errorf("with -pprof-addr empty: MemProfileRate = %d, want 0", runtime.MemProfileRate)
	}
}
