package faultproxy

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestFaultProxyForwardsAndDelays(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("pong"))
	}))
	defer backend.Close()
	p, err := New(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	get := func() (string, time.Duration) {
		start := time.Now()
		resp, err := http.Get(p.URL() + "/ping")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, _ := io.ReadAll(resp.Body)
		return string(body), time.Since(start)
	}

	if body, _ := get(); body != "pong" {
		t.Fatalf("proxied body = %q", body)
	}
	p.SetDelay(100 * time.Millisecond)
	if _, took := get(); took < 100*time.Millisecond {
		t.Fatalf("browned-out call took %s, want >= 100ms", took)
	}
	p.SetDelay(0)
	if _, took := get(); took > 90*time.Millisecond {
		t.Fatalf("unslowed call still took %s", took)
	}
}

func TestFaultProxyDeadBackendDropsConnection(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	p, err := New(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	backend.Close() // the SIGKILL stand-in

	// The gateway counts only TRANSPORT failures toward down-marking,
	// so a dead backend must surface as one, not as a polite 502.
	resp, err := http.Get(p.URL() + "/internal/meta")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("dead backend answered status %d; want a transport error", resp.StatusCode)
	}
}

// TestFaultProxyKillCutsEstablishedConnections pins what a
// request-level proxy could not do: Kill reaches a connection that is
// already open and idle mid-stream, refuses new ones, and Revive lets
// traffic through again.
func TestFaultProxyKillCutsEstablishedConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // echo backend
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(c, c); _ = c.Close() }()
		}
	}()
	p, err := New("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	addr := p.ln.Addr().String()

	echo := func(c net.Conn) error {
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Write([]byte("x")); err != nil {
			return err
		}
		_, err := io.ReadFull(c, make([]byte, 1))
		return err
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := echo(c); err != nil {
		t.Fatalf("echo through a live proxy: %v", err)
	}

	p.Kill()
	if err := echo(c); err == nil {
		t.Fatal("an established connection survived Kill")
	}
	c2, err := net.Dial("tcp", addr)
	if err == nil {
		defer c2.Close()
		if err := echo(c2); err == nil {
			t.Fatal("a killed proxy served a new connection")
		}
	}

	p.Revive()
	c3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := echo(c3); err != nil {
		t.Fatalf("echo after Revive: %v", err)
	}
}
