// Package faultproxy is the chaos harness's wire-level fault injector:
// a TCP proxy in front of one shard whose delay and death are set at
// run time.
package faultproxy

import (
	"net"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy fronts one shard with a TCP proxy whose faults are
// settable at runtime — the slow-shard and dead-shard injector. The
// gateway is pointed at the proxy, so a fault needs no cooperation from
// the shard binary: it happens on the wire, exactly where a congested
// link or a crashed peer would put it. It works on connections, not
// requests, because the gateway's data plane is one long-lived stream
// per shard: a proxy that only acted on the next HTTP request would
// never touch an established stream.
//
// The delay applies to every byte the gateway sends, including
// /internal/meta health probes — intentionally: a browned-out shard is
// slow to answer its health checks too, and the gateway's FailThreshold
// discipline (slow ≠ down, as long as calls complete) is part of what a
// brownout scenario exercises. A backend that cannot be dialled drops
// the gateway's connection: a transport failure, never a polite 502,
// because only transport failures count toward down-marking.
type Proxy struct {
	ln      net.Listener
	backend string       // host:port
	delay   atomic.Int64 // nanoseconds

	mu    sync.Mutex
	conns map[net.Conn]struct{} // both halves of every live pair
	dead  bool
	wg    sync.WaitGroup
}

// New starts a proxy for the shard base URL on a fresh
// loopback port.
func New(target string) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, backend: u.Host, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// URL is the proxy's base URL — what the gateway's -shards list names.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// SetDelay sets the delay injected before each chunk forwarded toward
// the shard; 0 lifts the brownout.
func (p *Proxy) SetDelay(d time.Duration) { p.delay.Store(int64(d)) }

// Kill cuts every live connection and refuses new ones until Revive —
// what a crashed daemon looks like from the gateway.
func (p *Proxy) Kill() {
	p.mu.Lock()
	p.dead = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
}

// Revive lets connections through again.
func (p *Proxy) Revive() {
	p.mu.Lock()
	p.dead = false
	p.mu.Unlock()
}

// Close stops the proxy: the listener, every live connection, and the
// goroutines serving them.
func (p *Proxy) Close() {
	_ = p.ln.Close()
	p.Kill()
	p.wg.Wait()
}

// track registers a connection unless the proxy is dead, in which case
// it is closed on the spot.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		_ = c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	_ = c.Close()
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(client) {
			continue
		}
		p.wg.Add(1)
		go p.serve(client)
	}
}

// serve pipes one client connection to a fresh backend connection until
// either side ends, then closes both.
func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	defer p.untrack(client)
	backend, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil || !p.track(backend) {
		return
	}
	defer p.untrack(backend)
	// Whichever direction ends first cuts both halves, so the other
	// copy returns too.
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.pipe(backend, client, true)
		_ = client.Close()
		_ = backend.Close()
	}()
	p.pipe(client, backend, false)
	_ = client.Close()
	_ = backend.Close()
	<-done
}

// pipe copies src to dst chunk by chunk; toward the shard (delayed) it
// sleeps the current delay before forwarding each chunk.
func (p *Proxy) pipe(dst, src net.Conn, delayed bool) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := time.Duration(p.delay.Load()); delayed && d > 0 {
				time.Sleep(d)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
