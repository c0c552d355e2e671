package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"
)

// This box's speed drifts: over minutes the same binary serves
// anywhere from half to four thirds of its usual rate, and a fixed
// loopback HTTP exchange that shares nothing with the repository
// drifts with it (README.md, "Noise"). The calibrator is that
// exchange, in the two shapes a request through the system takes: the
// two callers against an echo server in this process (goroutine
// hand-offs inside one Go runtime, as between a handler and its
// fan-out), and against the same echo server in a child process
// (thread wake-ups across processes, as between caller, gateway and
// shard). It runs while the system under test is idle, before and
// after every timed segment, and the end-to-end throughput and latency
// figures are stated at a reference machine speed: the measurement
// scaled by how fast the machine ran the calibration during the run.
// It is built from the standard library alone, so no change to the
// repository can move it — only the machine can.
const (
	calibrationWindow = 200 * time.Millisecond // per echo server, so 400 ms a reading
	// The machine speed the figures are stated at, in exchanges per
	// second against each echo server: about what this box manages
	// when it is quiet.
	referenceInProcessRate = 50000.0
	referenceChildRate     = 19000.0
	// echoFlag makes this binary the calibrator's child echo server.
	echoFlag = "calibration-echo"
)

var (
	echoRequest = strings.Repeat("x", 300)         // about a batch-4 predict request
	echoReply   = []byte(strings.Repeat("y", 600)) // about its reply
)

func echoHandler(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body) // an unread body only costs the connection, which the next exchange shows
	_, _ = w.Write(echoReply)
}

// serveEcho is the child's whole life: echo on addr until killed.
func serveEcho(addr string) error {
	return http.ListenAndServe(addr, http.HandlerFunc(echoHandler))
}

type calibrator struct {
	srv     *httptest.Server
	child   *daemon
	inProc  []*http.Client // one keep-alive connection per caller, to srv
	toChild []*http.Client // the same, to the child
}

func echoClients() []*http.Client {
	out := make([]*http.Client, callers)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return out
}

// newCalibrator starts both echo servers and waits until the child
// answers (it answers 200 to anything, /readyz included).
func newCalibrator(e *env) (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	child, err := e.spawn(self, addr, "--"+echoFlag, addr)
	if err != nil {
		return nil, err
	}
	if err := child.waitReady(readyTimeout); err != nil {
		child.kill()
		return nil, err
	}
	return &calibrator{
		srv:     httptest.NewServer(http.HandlerFunc(echoHandler)),
		child:   child,
		inProc:  echoClients(),
		toChild: echoClients(),
	}, nil
}

func (c *calibrator) close() {
	for _, cl := range append(c.inProc, c.toChild...) {
		cl.CloseIdleConnections()
	}
	c.srv.Close()
	c.child.kill()
}

// speed takes one reading: every caller runs the exchange closed-loop
// for one window against each echo server, and the machine's speed is
// the geometric mean of the two rates relative to their references
// (1 = the reference machine; 0.8 = a fifth slower).
func (c *calibrator) speed() (float64, error) {
	in, err := echoRate(c.inProc, c.srv.URL)
	if err != nil {
		return 0, err
	}
	out, err := echoRate(c.toChild, c.child.url)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(in / referenceInProcessRate * out / referenceChildRate), nil
}

// echoRate is the exchanges per second the callers complete against
// url in one calibration window.
func echoRate(clients []*http.Client, url string) (float64, error) {
	counts := make([]int, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *http.Client) {
			defer wg.Done()
			for time.Since(start) < calibrationWindow {
				resp, err := cl.Post(url, "application/json", strings.NewReader(echoRequest))
				if err != nil {
					return // a dead loopback shows as a low count, or as none at all
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				counts[i]++
			}
		}(i, cl)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0, errors.New("calibration: no loopback exchange completed")
	}
	return float64(total) / time.Since(start).Seconds(), nil
}
