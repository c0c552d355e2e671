package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where one benchmark run keeps its files: everything lives
// under .bench_build in the checkout, the per-run part in a directory
// that is removed when the run ends.
type env struct {
	root string // repository checkout
	bin  string // built daemons, reused across runs
	work string // this run's scratch: logs, data dirs, trace dumps
	out  string // bench/out: results and traces that outlive the run

	mu    sync.Mutex
	procs map[*daemon]bool
}

// newEnv locates the checkout (the benchmark runs from bench/ under
// `go run -C bench .`, or from the root), builds the two daemons and
// creates the run's scratch directory. The build is not timed.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := wd
	if _, err := os.Stat(filepath.Join(root, "cmd", "serve")); err != nil {
		root = filepath.Dir(wd)
		if _, err := os.Stat(filepath.Join(root, "cmd", "serve")); err != nil {
			return nil, fmt.Errorf("cmd/serve not found from %s: run from the repository checkout", wd)
		}
	}
	e := &env{
		root:  root,
		bin:   filepath.Join(root, ".bench_build", "bin"),
		out:   filepath.Join(root, "bench", "out"),
		procs: map[*daemon]bool{},
	}
	for _, dir := range []string{e.bin, e.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	build := exec.Command("go", "build", "-o", e.bin+string(os.PathSeparator), "./cmd/serve", "./cmd/gateway")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, msg)
	}
	if e.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// close kills whatever is still running and removes the run's scratch.
func (e *env) close() {
	e.mu.Lock()
	live := make([]*daemon, 0, len(e.procs))
	for d := range e.procs {
		live = append(live, d)
	}
	e.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	_ = os.RemoveAll(e.work) // scratch only; a leftover is harmless
}

// quoteLogs writes the end of every daemon log of the run to w: what
// the children said, beside the error of a failed run.
func (e *env) quoteLogs(w io.Writer) {
	logs, _ := filepath.Glob(filepath.Join(e.work, "*.log")) // the pattern is well-formed
	for _, path := range logs {
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			continue
		}
		if len(raw) > 1500 {
			raw = raw[len(raw)-1500:]
		}
		fmt.Fprintf(w, "bench: --- end of %s ---\n%s\n", filepath.Base(path), raw)
	}
}

// daemon is one child process in its own process group.
type daemon struct {
	e      *env
	cmd    *exec.Cmd
	url    string
	log    string // path of the stderr log
	execAt time.Time
	exited chan struct{} // closed once the process has ended and been waited for
	killed sync.Once
}

// freePorts asks the kernel for n unused loopback ports. Every port is
// held until all are chosen, so the n are distinct. Another process may
// still take one before the daemon binds it: boot tries again then.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	held := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range held {
			_ = ln.Close() // nothing was served on it
		}
	}()
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// start execs one of the built daemons listening on port.
func (e *env) start(name string, port int, args ...string) (*daemon, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	return e.spawn(filepath.Join(e.bin, name), addr, append([]string{"-addr", addr, "-trace-dump-dir", e.work}, args...)...)
}

// spawn execs a program that will listen on addr, in its own process
// group and in the scratch directory. Its stderr goes to a log file
// there, quoted on failure.
func (e *env) spawn(path, addr string, args ...string) (*daemon, error) {
	log, err := os.Create(filepath.Join(e.work, fmt.Sprintf("%s-%s.log", filepath.Base(path), addr)))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	cmd := exec.Command(path, args...)
	cmd.Dir = e.work
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	d := &daemon{e: e, cmd: cmd, url: "http://" + addr, log: log.Name(), execAt: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	e.mu.Lock()
	e.procs[d] = true
	e.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a signalled child is not an error here
		e.mu.Lock()
		delete(e.procs, d)
		e.mu.Unlock()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// signal sends sig to the daemon's whole process group, unless it has
// ended or been signalled already, and waits for it to end.
func (d *daemon) signal(sig syscall.Signal) {
	d.killed.Do(func() {
		select {
		case <-d.exited:
		default:
			_ = syscall.Kill(-d.pid(), sig) // already gone is fine
		}
	})
	<-d.exited
}

func (d *daemon) kill() { d.signal(syscall.SIGKILL) }
func (d *daemon) term() { d.signal(syscall.SIGTERM) }

// logTail returns the end of the daemon's log for error messages.
func (d *daemon) logTail() string {
	raw, err := os.ReadFile(d.log)
	if err != nil {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// errExited marks a daemon that ended before it was ready — what a
// lost race for its port looks like.
var errExited = errors.New("exited before it was ready")

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("%s %w\n%s", d.url, errExited, d.logTail())
		default:
		}
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s\n%s", d.url, timeout, d.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON decodes a daemon's JSON answer to a GET.
func (d *daemon) getJSON(path string, out any) error {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d", d.url, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// cpuSeconds is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in 100 Hz clock ticks).
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from
	// after its closing parenthesis.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat line")
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB is the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// topology is a booted serving tier: the daemons and the URL callers
// talk to.
type topology struct {
	url     string
	nodes   []*daemon // serve processes (one node, or the shards)
	gateway *daemon   // nil for a lone node
	bootS   float64   // exec of the first process to the last /readyz 200
}

func (t *topology) all() []*daemon {
	if t.gateway == nil {
		return t.nodes
	}
	return append(append([]*daemon(nil), t.nodes...), t.gateway)
}

// peakRSSMB sums the daemons' resident-set high-water marks.
func (t *topology) peakRSSMB() (float64, error) {
	var sum float64
	for _, d := range t.all() {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

func (t *topology) kill() {
	for _, d := range t.all() {
		d.kill()
	}
}

const readyTimeout = 60 * time.Second

// bootAttempts is how often a boot is tried when a daemon ends before
// it is ready.
const bootAttempts = 3

// retryBoot boots until no daemon ends before it is ready. A durable
// serve binds its port only after recovering its data directory, so a
// retried recovery boot finds the tail already folded into a checkpoint
// and the cycle's replay-count check fails it, as it should.
func retryBoot(boot func() (*topology, error)) (t *topology, err error) {
	for i := 0; i < bootAttempts; i++ {
		if t, err = boot(); err == nil || !errors.Is(err, errExited) {
			break
		}
		progress("boot attempt %d failed: %v", i+1, err)
	}
	return t, err
}

// bootNode starts one serve over the fixed catalog with the given
// extra flags and waits until it is ready.
func (e *env) bootNode(extra ...string) (*topology, error) {
	return retryBoot(func() (*topology, error) { return e.bootNodeOnce(extra...) })
}

func (e *env) bootNodeOnce(extra ...string) (*topology, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-videos", strconv.Itoa(catalogVideos), "-seed", strconv.Itoa(catalogSeed)}, extra...)
	d, err := e.start("serve", ports[0], args...)
	if err != nil {
		return nil, err
	}
	t := &topology{url: d.url, nodes: []*daemon{d}}
	if err := d.waitReady(readyTimeout); err != nil {
		t.kill()
		return nil, err
	}
	t.bootS = time.Since(d.execAt).Seconds()
	return t, nil
}

// bootCluster starts the shards together, waits for all of them, then
// starts the gateway over them (so its start-up sync succeeds at once
// and no retry back-off lands in the boot time).
func (e *env) bootCluster(extra ...string) (*topology, error) {
	return retryBoot(func() (*topology, error) { return e.bootClusterOnce(extra...) })
}

func (e *env) bootClusterOnce(extra ...string) (*topology, error) {
	ports, err := freePorts(clusterShards + 1)
	if err != nil {
		return nil, err
	}
	t := &topology{}
	var targets []string
	for i := 0; i < clusterShards; i++ {
		args := append([]string{"-videos", strconv.Itoa(catalogVideos), "-seed", strconv.Itoa(catalogSeed),
			"-shard", fmt.Sprintf("%d/%d", i, clusterShards)}, extra...)
		d, err := e.start("serve", ports[i], args...)
		if err != nil {
			t.kill()
			return nil, err
		}
		t.nodes = append(t.nodes, d)
		targets = append(targets, d.url)
	}
	for _, d := range t.nodes {
		if err := d.waitReady(readyTimeout); err != nil {
			t.kill()
			return nil, err
		}
	}
	if t.gateway, err = e.start("gateway", ports[clusterShards], "-shards", strings.Join(targets, ",")); err != nil {
		t.kill()
		return nil, err
	}
	if err := t.gateway.waitReady(readyTimeout); err != nil {
		t.kill()
		return nil, err
	}
	t.url = t.gateway.url
	t.bootS = time.Since(t.nodes[0].execAt).Seconds()
	return t, nil
}

// boot starts the topology a workload runs against. Each durable boot
// gets its own fresh data directory unless dataDir names one to reuse.
func (e *env) boot(w workload, dataDir string) (*topology, error) {
	switch {
	case w.gateway && w.mixed:
		return e.bootCluster("-ingest-interval", "500ms")
	case w.gateway:
		return e.bootCluster()
	case w.durable:
		if dataDir == "" {
			var err error
			if dataDir, err = os.MkdirTemp(e.work, "data-"); err != nil {
				return nil, err
			}
		}
		return e.bootNode("-data-dir", dataDir, "-ingest-interval", "500ms")
	default:
		return e.bootNode()
	}
}
