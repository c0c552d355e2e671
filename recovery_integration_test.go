// Crash-recovery integration tests at repository scope: the real
// cmd/serve binary with -data-dir, driven over real HTTP, hard-killed
// and restarted — asserting the durable tier's headline promise: an
// acked event is never lost, and a recovered node predicts exactly what
// a never-killed one does.
package viewstags_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/node"
	"viewstags/internal/persist"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
)

// The daemon and the in-process reference node must build the identical
// base snapshot, so they share generation parameters.
const (
	recVideos = 1500
	recSeed   = 424242
)

var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

// daemonBinary builds cmd/serve and cmd/gateway once per test run, into
// a directory that outlives any single test (a t.TempDir would vanish
// when the first test using it finishes, breaking the second), and
// returns the path of the named one. TestMain removes the directory.
func daemonBinary(t *testing.T, name string) string {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "viewstags-bin-"); binErr != nil {
			return
		}
		for _, cmd := range []string{"serve", "gateway"} {
			if out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
				binErr = fmt.Errorf("building cmd/%s: %v\n%s", cmd, err, out)
				return
			}
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return filepath.Join(binDir, name)
}

// TestMain cleans up the shared daemon binaries after the whole package.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		_ = os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// daemon is one running serve process.
type daemon struct {
	t      *testing.T
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
	done   chan error
}

func startDaemon(t *testing.T, dataDir string, extra ...string) *daemon {
	t.Helper()
	bin := daemonBinary(t, "serve")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	args := append([]string{
		"-addr", addr,
		"-videos", fmt.Sprint(recVideos),
		"-seed", fmt.Sprint(recSeed),
		"-ingest-interval", "30s", // folds only happen when the test asks
		"-grace", "5s",
		"-data-dir", dataDir,
	}, extra...)
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, url: "http://" + addr, stderr: &stderr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	t.Cleanup(func() {
		select {
		case <-d.done:
		default:
			_ = cmd.Process.Kill()
			<-d.done
		}
	})

	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			code := resp.StatusCode
			_ = resp.Body.Close()
			if code == http.StatusOK {
				return d
			}
		}
		select {
		case werr := <-d.done:
			d.done <- werr
			t.Fatalf("daemon exited before becoming ready: %v\nstderr:\n%s", werr, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon not ready in time\nstderr:\n%s", stderr.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon — the hard-crash case.
func (d *daemon) kill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatal(err)
	}
	<-d.done
	d.done <- nil
}

// term SIGTERMs the daemon and waits for the graceful exit.
func (d *daemon) term() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	select {
	case err := <-d.done:
		d.done <- nil
		if err != nil {
			d.t.Fatalf("daemon exited with %v on SIGTERM\nstderr:\n%s", err, d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		d.t.Fatalf("daemon did not exit on SIGTERM\nstderr:\n%s", d.stderr.String())
	}
}

// recoveryBatches is the ingested geography both tests replay: phase A
// is folded and checkpointed before the kill, phase B only journaled.
func recoveryBatchA() server.IngestRequest {
	return server.IngestRequest{Events: []server.IngestEvent{
		{Video: "rec-a1", Tags: []string{"zz-rec-a"}, Country: "US", Views: 70, Upload: true},
		{Video: "rec-a1", Tags: []string{"zz-rec-a"}, Country: "JP", Views: 30},
		{Video: "rec-a2", Tags: []string{"zz-rec-a", "zz-rec-b"}, Country: "BR", Views: 10, Upload: true},
	}}
}

func recoveryBatchB() server.IngestRequest {
	return server.IngestRequest{Events: []server.IngestEvent{
		{Video: "rec-b1", Tags: []string{"zz-rec-b"}, Country: "FR", Views: 50, Upload: true},
		{Video: "rec-b1", Tags: []string{"zz-rec-b"}, Country: "BR", Views: 40},
		{Video: "rec-b2", Tags: []string{"zz-rec-a"}, Country: "DE", Views: 5, Upload: true},
	}}
}

// referenceNode builds the never-killed twin in process and applies the
// given batches over real HTTP, folding after each.
func referenceNode(t *testing.T, batches []server.IngestRequest) (*httptest.Server, func()) {
	t.Helper()
	res, err := pipeline.FromSynthetic(recVideos, recSeed, alexa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	n := startNode(t, nodeOptions(0, 1, 1, time.Hour), &node.Base{Snap: snap})
	for i, b := range batches {
		if code := postJSON(t, n.ts.Client(), n.ts.URL+"/v1/ingest", b, nil); code != http.StatusOK {
			t.Fatalf("reference ingest %d: status %d", i, code)
		}
		n.settle()
	}
	return n.ts, n.stop
}

// predictShares fetches one prediction's full share map.
func predictShares(t *testing.T, client *http.Client, base string, tags []string, weighting string) (bool, map[string]float64) {
	t.Helper()
	var resp server.PredictResponse
	code := postJSON(t, client, base+"/v1/predict", server.PredictRequest{Tags: tags, Weighting: weighting, Top: 200}, &resp)
	if code != http.StatusOK || resp.Result == nil {
		t.Fatalf("predict %v: status %d", tags, code)
	}
	shares := map[string]float64{}
	for _, cs := range resp.Result.Top {
		shares[cs.Country] = cs.Share
	}
	return resp.Result.Known, shares
}

// assertSameGeography compares a node's predictions against the
// reference, share for share, for several tag mixes and weightings.
func assertSameGeography(t *testing.T, nodeURL, refURL string) {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	mixes := [][]string{
		{"zz-rec-a"},
		{"zz-rec-b"},
		{"zz-rec-a", "zz-rec-b"},          // cross-tag: IDF weights must agree → records recovered exactly
		{"zz-rec-b", "zz-never-ingested"}, // unknown tags must not perturb recovery state
	}
	for _, weighting := range []string{"idf", "by-views", "uniform"} {
		for _, tags := range mixes {
			gotKnown, got := predictShares(t, client, nodeURL, tags, weighting)
			wantKnown, want := predictShares(t, client, refURL, tags, weighting)
			if gotKnown != wantKnown {
				t.Fatalf("%v (%s): known=%v, reference %v", tags, weighting, gotKnown, wantKnown)
			}
			if len(got) != len(want) {
				t.Fatalf("%v (%s): %d countries vs reference %d", tags, weighting, len(got), len(want))
			}
			for c, share := range want {
				if got[c] != share {
					t.Fatalf("%v (%s): share[%s] = %v, reference %v", tags, weighting, c, got[c], share)
				}
			}
		}
	}
}

// TestRecoveryEndToEnd is the acceptance test: serve with -data-dir,
// ingest over real HTTP, checkpoint mid-stream, ingest more, SIGKILL,
// restart — the recovered node must load the checkpoint, replay the
// journal tail, and predict the ingested geography identically (share
// for share) to a reference node that was never killed.
func TestRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir, "-checkpoint-every", "1")
	client := &http.Client{Timeout: 30 * time.Second}

	// Phase A: acked, folded, checkpointed.
	if code := postJSON(t, client, d.url+"/v1/ingest", recoveryBatchA(), nil); code != http.StatusOK {
		t.Fatalf("ingest A: status %d", code)
	}
	var ckpt server.CheckpointStatus
	if code := postJSON(t, client, d.url+"/v1/checkpoint", struct{}{}, &ckpt); code != http.StatusOK {
		t.Fatalf("checkpoint: status %d", code)
	}
	if ckpt.Epoch < 1 {
		t.Fatalf("checkpoint epoch %d, want >= 1 (phase A folded)", ckpt.Epoch)
	}

	// Phase B: acked and journaled, never folded — the WAL's reason to
	// exist. SIGKILL right after the ack.
	if code := postJSON(t, client, d.url+"/v1/ingest", recoveryBatchB(), nil); code != http.StatusOK {
		t.Fatalf("ingest B: status %d", code)
	}
	d.kill()

	// Restart over the same directory.
	d2 := startDaemon(t, dataDir, "-checkpoint-every", "1")

	// Both recovery paths must have been exercised: the checkpoint
	// loaded (phase A) and the journal replayed (phase B).
	var stats struct {
		Persist *persist.Stats `json:"persist"`
	}
	if code := getJSON(t, client, d2.url+"/v1/stats", &stats); code != http.StatusOK || stats.Persist == nil {
		t.Fatalf("/v1/stats persist block missing after restart (code %d)", code)
	}
	if !stats.Persist.Recovered {
		t.Fatal("restarted daemon did not load the checkpoint")
	}
	if stats.Persist.ReplayedRecords < 1 {
		t.Fatalf("restarted daemon replayed %d journal records, want >= 1 (phase B)", stats.Persist.ReplayedRecords)
	}
	var health struct {
		Epoch uint64 `json:"epoch"`
	}
	if code := getJSON(t, client, d2.url+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz after restart: %d", code)
	}
	if health.Epoch < ckpt.Epoch+1 {
		t.Fatalf("recovered epoch %d, want >= %d (checkpoint epoch + recovery fold)", health.Epoch, ckpt.Epoch+1)
	}

	// The recovered node must predict exactly what a never-killed node
	// does — including IDF weights, so the record count survived too.
	ref, closeRef := referenceNode(t, []server.IngestRequest{recoveryBatchA(), recoveryBatchB()})
	defer closeRef()
	assertSameGeography(t, d2.url, ref.URL)
}

// TestShardRestartSkipsTheBuild: a durable shard that finds a checkpoint
// serves it without generating the corpus first — the fresh build it used
// to make was discarded for the checkpoint's snapshot. The restarted
// shard reports the state it stopped with and never ran the pass.
func TestShardRestartSkipsTheBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir, "-shard", "0/3", "-checkpoint-every", "1")
	client := &http.Client{Timeout: 30 * time.Second}
	if code := postJSON(t, client, d.url+"/v1/ingest", recoveryBatchA(), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if code := postJSON(t, client, d.url+"/v1/checkpoint", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("checkpoint: status %d", code)
	}
	var before, after server.InternalMetaResponse
	if code := getJSON(t, client, d.url+server.InternalMetaPath, &before); code != http.StatusOK {
		t.Fatalf("meta: status %d", code)
	}
	if before.Version.Epoch < 1 {
		t.Fatalf("epoch %d after a fold, want >= 1", before.Version.Epoch)
	}
	d.kill() // a log is read only once its daemon has exited
	if log := d.stderr.String(); !strings.Contains(log, "generating") {
		t.Fatalf("first boot did not run the synthetic pass:\n%s", log)
	}

	d2 := startDaemon(t, dataDir, "-shard", "0/3", "-checkpoint-every", "1")
	if code := getJSON(t, client, d2.url+server.InternalMetaPath, &after); code != http.StatusOK {
		t.Fatalf("meta after restart: status %d", code)
	}
	if a, b := after.Version, before.Version; after.Tags != before.Tags || a.Records != b.Records || a.Epoch != b.Epoch {
		t.Fatalf("restarted shard reports %d tags, %d records, epoch %d; it stopped with %d, %d, %d",
			after.Tags, a.Records, a.Epoch, before.Tags, b.Records, b.Epoch)
	}
	if a, b := after.Version.Incarnation, before.Version.Incarnation; a <= b {
		t.Fatalf("restarted shard states incarnation %d, the stopped one %d: a restart must say so", a, b)
	}
	d2.term()
	if log := d2.stderr.String(); !strings.Contains(log, "recovered checkpoint") || strings.Contains(log, "generating") {
		t.Fatalf("restarted shard should recover and not generate:\n%s", log)
	}
}

// TestGracefulShutdownFlush pins the clean-stop contract: ack, SIGTERM,
// restart — the drained daemon folds and checkpoints its buffer tail,
// so the restarted one predicts the acked events without needing a
// journal replay.
func TestGracefulShutdownFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and stops a real daemon")
	}
	dataDir := t.TempDir()
	// checkpoint-every 0: nothing checkpoints on fold cadence, so the
	// events can only survive via the shutdown flush (or the journal).
	d := startDaemon(t, dataDir, "-checkpoint-every", "0")
	client := &http.Client{Timeout: 30 * time.Second}

	if code := postJSON(t, client, d.url+"/v1/ingest", recoveryBatchA(), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if code := postJSON(t, client, d.url+"/v1/ingest", recoveryBatchB(), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	d.term()

	d2 := startDaemon(t, dataDir, "-checkpoint-every", "0")
	var stats struct {
		Persist *persist.Stats `json:"persist"`
	}
	if code := getJSON(t, client, d2.url+"/v1/stats", &stats); code != http.StatusOK || stats.Persist == nil {
		t.Fatalf("/v1/stats persist block missing after restart (code %d)", code)
	}
	if !stats.Persist.Recovered {
		t.Fatal("restarted daemon did not load the shutdown checkpoint")
	}
	if stats.Persist.ReplayedRecords != 0 {
		t.Fatalf("clean stop left %d journal records to replay, want 0 (shutdown flush must checkpoint the tail)",
			stats.Persist.ReplayedRecords)
	}

	ref, closeRef := referenceNode(t, []server.IngestRequest{recoveryBatchA(), recoveryBatchB()})
	defer closeRef()
	assertSameGeography(t, d2.url, ref.URL)
}

// getJSON GETs and decodes a JSON body.
func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestReadOnlyRestartRefusesUnreplayedJournal pins review fix: a
// durable daemon restarted with -ingest-interval 0 must refuse to
// start while acked journal records sit past the checkpoint — serving
// without them would silently violate the ack contract.
func TestReadOnlyRestartRefusesUnreplayedJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir)
	client := &http.Client{Timeout: 30 * time.Second}
	if code := postJSON(t, client, d.url+"/v1/ingest", recoveryBatchA(), nil); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	d.kill() // journal tail left behind (30s interval: nothing folded)

	bin := daemonBinary(t, "serve")
	out, err := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-videos", fmt.Sprint(recVideos),
		"-seed", fmt.Sprint(recSeed),
		"-ingest-interval", "0",
		"-data-dir", dataDir,
	).CombinedOutput()
	if err == nil {
		t.Fatalf("read-only restart over an unreplayed journal started anyway:\n%s", out)
	}
	if !bytes.Contains(out, []byte("would be invisible")) {
		t.Fatalf("refusal does not name the journal tail:\n%s", out)
	}
}
