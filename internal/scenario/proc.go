package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"viewstags/internal/faultproxy"
	"viewstags/internal/node"
)

// Binaries locates (or builds) the serve and gateway executables the
// engine boots. CI passes prebuilt paths; `cmd/scenario` builds them
// into the workdir when none are given, so `go run ./cmd/scenario`
// works from a bare checkout.
type Binaries struct {
	Serve   string
	Gateway string
}

// buildBinaries compiles cmd/serve and cmd/gateway into dir with the
// local go toolchain. moduleDir is the repo root ("" = current dir).
// race additionally instruments the daemons with the race detector, so
// a chaos run doubles as a data-race hunt over the real processes.
func buildBinaries(dir, moduleDir string, race bool) (Binaries, error) {
	b := Binaries{
		Serve:   filepath.Join(dir, "serve"),
		Gateway: filepath.Join(dir, "gateway"),
	}
	for out, pkg := range map[string]string{b.Serve: "./cmd/serve", b.Gateway: "./cmd/gateway"} {
		args := []string{"build"}
		if race {
			args = append(args, "-race")
		}
		cmd := exec.Command("go", append(args, "-o", out, pkg)...)
		cmd.Dir = moduleDir
		if msg, err := cmd.CombinedOutput(); err != nil {
			return Binaries{}, fmt.Errorf("scenario: go build %s: %w\n%s", pkg, err, msg)
		}
	}
	return b, nil
}

// freeAddr grabs a free loopback port the way the integration tests
// do: bind :0, read the chosen port, close. The tiny race between
// close and the daemon's own bind has never mattered on loopback.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr, nil
}

// proc is one supervised daemon: the running command, its address and
// captured stderr, and a done channel closed by the Wait reaper.
type proc struct {
	name   string
	bin    string
	args   []string
	addr   string
	url    string
	mu     sync.Mutex
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	done   chan error
}

// start launches the binary and begins reaping it. It does NOT wait
// for readiness — callers poll the probe path they care about.
func (p *proc) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	cmd := exec.Command(p.bin, p.args...)
	stderr := &bytes.Buffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("scenario: start %s: %w", p.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	p.cmd, p.stderr, p.done = cmd, stderr, done
	return nil
}

// signalAndWait delivers sig and waits for exit (bounded); SIGKILL'd
// and SIGTERM'd daemons both "fail" Wait, which is expected.
func (p *proc) signalAndWait(sig syscall.Signal, timeout time.Duration) error {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("scenario: %s is not running", p.name)
	}
	if err := cmd.Process.Signal(sig); err != nil {
		return fmt.Errorf("scenario: signal %s: %w", p.name, err)
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		<-done
		return fmt.Errorf("scenario: %s ignored %v for %s; killed", p.name, sig, timeout)
	}
}

// tail returns the last captured stderr for failure reports.
func (p *proc) tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stderr == nil {
		return ""
	}
	s := p.stderr.String()
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return strings.TrimSpace(s)
}

// waitHTTP polls url until it answers 200 or the deadline passes — the
// readyz-poll loop from the integration tests, as a library.
func waitHTTP(client *http.Client, url string, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		resp, err := client.Get(url)
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("scenario: %s not ready after %s", url, deadline)
}

// Cluster is the booted topology: N shard daemons, each fronted by a
// faultproxy.Proxy (the brownout injector), behind one gateway whose targets
// are the proxies. Everything chaos needs — kill, restart, delay —
// hangs off this struct.
type Cluster struct {
	spec    *Binaries
	sc      *Spec
	workdir string
	logger  *log.Logger
	client  *http.Client

	shards  []*proc
	proxies []*faultproxy.Proxy
	gateway *proc
}

// GatewayURL is the traffic entrypoint.
func (c *Cluster) GatewayURL() string { return c.gateway.url }

// startCluster boots shards, proxies and gateway and waits until the
// gateway reports every shard healthy. workdir holds binaries (when
// built here), shard data dirs and nothing else; the caller owns its
// lifetime.
func startCluster(bins Binaries, sc *Spec, workdir string, logger *log.Logger) (*Cluster, error) {
	c := &Cluster{
		spec:    &bins,
		sc:      sc,
		workdir: workdir,
		logger:  logger,
		client:  &http.Client{Timeout: 5 * time.Second},
	}
	ok := false
	defer func() {
		if !ok {
			c.Stop()
		}
	}()

	targets := make([]string, sc.Shards)
	for i := 0; i < sc.Shards; i++ {
		p, err := c.newShardProc(i, sc.Shards)
		if err != nil {
			return nil, err
		}
		if err := p.start(); err != nil {
			return nil, err
		}
		c.shards = append(c.shards, p)

		proxy, err := faultproxy.New(p.url)
		if err != nil {
			return nil, err
		}
		c.proxies = append(c.proxies, proxy)
		targets[i] = proxy.URL()
	}
	for _, p := range c.shards {
		if err := waitHTTP(c.client, p.url+"/readyz", 2*time.Minute); err != nil {
			return nil, fmt.Errorf("%w\n%s stderr:\n%s", err, p.name, p.tail())
		}
	}

	gwAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	gwArgs := gatewayOptions(sc, gwAddr, targets).Args()
	c.gateway = &proc{name: "gateway", bin: bins.Gateway, args: gwArgs, addr: gwAddr, url: "http://" + gwAddr}
	if err := c.gateway.start(); err != nil {
		return nil, err
	}
	// /readyz (not /healthz): the gateway must prove the whole shard
	// tier healthy before traffic starts, or warmup absorbs a boot race.
	if err := waitHTTP(c.client, c.gateway.url+"/readyz", 2*time.Minute); err != nil {
		return nil, fmt.Errorf("%w\ngateway stderr:\n%s", err, c.gateway.tail())
	}
	ok = true
	return c, nil
}

// gatewayOptions are the gateway of a tier over targets: the spec's
// health cadence and replica factor, a minute to sync with shards that
// are still booting, and a short drain.
func gatewayOptions(sc *Spec, addr string, targets []string) node.GatewayOptions {
	o := node.DefaultGatewayOptions()
	o.Addr, o.Shards, o.SyncWait, o.Grace = addr, strings.Join(targets, ","), time.Minute, 2*time.Second
	if d := sc.HealthInterval.D(); d > 0 {
		o.Gateway.HealthInterval = d
	}
	o.Gateway.Replicas = max(sc.Replicas, 1)
	return o
}

// shardOptions are shard i of an n-shard tier: the scenario's dataset
// knobs, so every member agrees on videos, seed and replica factor, its
// fold cadence (500 ms unless the spec says), a short drain and, on a
// durable tier, the data directory under workdir.
func shardOptions(sc *Spec, workdir, addr string, i, n int) node.Options {
	o := node.DefaultOptions()
	o.Addr, o.Videos, o.Seed, o.Grace = addr, sc.Videos, sc.Seed, 2*time.Second
	if o.IngestInterval = sc.FoldInterval.D(); o.IngestInterval == 0 {
		o.IngestInterval = 500 * time.Millisecond
	}
	if n > 1 {
		o.Shard = fmt.Sprintf("%d/%d", i, n)
	}
	o.Server.Replicas = max(sc.Replicas, 1)
	if sc.Durable {
		// One shared root: the node namespaces per shard
		// (shard-i-of-n) underneath it, so restarts find their state.
		o.DataDir = filepath.Join(workdir, "data")
	}
	return o
}

// newShardProc builds (without starting) the supervised daemon for
// shard i of an n-shard tier.
func (c *Cluster) newShardProc(i, n int) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := shardOptions(c.sc, c.workdir, addr, i, n).Args()
	return &proc{name: fmt.Sprintf("shard-%d", i), bin: c.spec.Serve, args: args, addr: addr, url: "http://" + addr}, nil
}

// GrowCluster boots shard n of a tier growing n → n+1 (same dataset
// knobs, identity already in the grown ring), waits for it to build,
// and POSTs /v1/reshard so the gateway streams slices over and cuts
// the topology live. The new daemon gets its own faultproxy.Proxy so later
// chaos can address it like any other member.
func (c *Cluster) GrowCluster() error {
	i := len(c.shards)
	c.logger.Printf("chaos: grow cluster %d -> %d shards", i, i+1)
	p, err := c.newShardProc(i, i+1)
	if err != nil {
		return err
	}
	if err := p.start(); err != nil {
		return err
	}
	c.shards = append(c.shards, p)
	proxy, err := faultproxy.New(p.url)
	if err != nil {
		return err
	}
	c.proxies = append(c.proxies, proxy)
	if err := waitHTTP(c.client, p.url+"/readyz", 2*time.Minute); err != nil {
		return fmt.Errorf("%w\n%s stderr:\n%s", err, p.name, p.tail())
	}
	targets := make([]string, len(c.proxies))
	for j, pr := range c.proxies {
		targets[j] = pr.URL()
	}
	body, err := json.Marshal(map[string][]string{"targets": targets})
	if err != nil {
		return err
	}
	// The reshard blocks until every slice has moved; give it its own
	// generous deadline instead of the 5s probe client.
	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Post(c.gateway.url+"/v1/reshard", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("scenario: reshard: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scenario: reshard: status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	c.logger.Printf("chaos: reshard complete: %s", strings.TrimSpace(string(raw)))
	return nil
}

// KillShard SIGKILLs shard i — the crash the durable tier exists for.
func (c *Cluster) KillShard(i int) error {
	c.logger.Printf("chaos: SIGKILL %s", c.shards[i].name)
	return c.shards[i].signalAndWait(syscall.SIGKILL, 10*time.Second)
}

// RestartShard relaunches shard i with its original arguments (same
// address, same data dir) and waits for recovery to finish.
func (c *Cluster) RestartShard(i int) error {
	c.logger.Printf("chaos: restart %s", c.shards[i].name)
	if err := c.shards[i].start(); err != nil {
		return err
	}
	return waitHTTP(c.client, c.shards[i].url+"/readyz", 2*time.Minute)
}

// RestartGateway SIGTERMs the gateway (graceful drain), relaunches it
// with identical arguments and waits for it to re-sync.
func (c *Cluster) RestartGateway() error {
	c.logger.Printf("chaos: restart gateway")
	if err := c.gateway.signalAndWait(syscall.SIGTERM, 30*time.Second); err != nil {
		return err
	}
	if err := c.gateway.start(); err != nil {
		return err
	}
	return waitHTTP(c.client, c.gateway.url+"/readyz", 2*time.Minute)
}

// SetShardDelay injects (or with 0 lifts) the brownout on shard i's
// proxy.
func (c *Cluster) SetShardDelay(i int, delay time.Duration) {
	c.logger.Printf("chaos: shard-%d proxy delay -> %s", i, delay)
	c.proxies[i].SetDelay(delay)
}

// Stop tears the whole topology down, leaving workdir contents alone.
// Safe on a partially-started cluster and after chaos has already
// killed members.
func (c *Cluster) Stop() {
	if c.gateway != nil {
		_ = c.gateway.signalAndWait(syscall.SIGTERM, 15*time.Second)
	}
	for _, p := range c.proxies {
		p.Close()
	}
	for _, p := range c.shards {
		_ = p.signalAndWait(syscall.SIGTERM, 15*time.Second)
	}
}

// makeWorkdir creates a scratch directory for one run. Callers pass keep
// to preserve it for debugging; otherwise they os.RemoveAll it.
func makeWorkdir() (string, error) {
	return os.MkdirTemp("", "viewstags-scenario-*")
}
