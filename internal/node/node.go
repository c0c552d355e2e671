// Package node assembles the two daemons. The serve role is the Eq. 3
// profiles served by internal/server, kept live by internal/ingest and
// durable through internal/persist: cmd/serve binds Options' flag table
// (flags.go) and calls Run, which is two steps, Boot (recover or build a
// snapshot) and Start (assemble a node over it), then serves. Start
// alone is a node served another way, over a Base from Boot or one
// holding the caller's own snapshot. The gateway role (gateway.go) is
// internal/cluster's gateway over the shards: cmd/gateway binds
// GatewayOptions' table and calls RunGateway, and StartGateway is
// RunGateway without the listener.
package node

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/persist"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/server"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// Options are a serve process's settings, one field per cmd/serve flag
// (Bind) in Process, in Server and here. The node derives the server's
// shard identity and topology from Shard; a nil Server.Logger is the
// standard logger.
type Options struct {
	Process
	Videos          int
	Seed            uint64
	Dataset         string // crawled JSONL file; empty: synthesize Videos from Seed
	Weighting       string
	Server          server.Common
	IngestInterval  time.Duration // 0 disables /v1/ingest
	IngestBuffer    int
	Shard           string // "i/n"; empty: the whole vocabulary
	DataDir         string // empty: in-memory only
	Fsync           string
	CheckpointEvery int // 0: only at shutdown or when asked
}

// DefaultOptions are cmd/serve's flag defaults.
func DefaultOptions() Options {
	return Options{
		Process: process("127.0.0.1:8091"), Videos: 20000, Seed: 20110301, Weighting: "idf",
		Server: server.DefaultConfig().Common, IngestInterval: 3 * time.Second, IngestBuffer: 1 << 20,
		Fsync: "never", CheckpointEvery: 16,
	}
}

// shape is what both steps derive from the options.
type shape struct {
	index, count int
	ring         *ring.Ring
	w            tagviews.Weighting
	logger       *log.Logger
}

func (o *Options) shape() (sh shape, err error) {
	if err = o.check(); err != nil {
		return sh, err
	}
	sh.logger = o.Server.WithDefaults().Logger
	if sh.index, sh.count, err = parseShard(o.Shard); err != nil {
		return sh, err
	}
	// The boot's ownership filter; the server derives the same ring.
	if sh.ring, err = ring.New(sh.count, o.Server.Replicas); err != nil {
		return sh, err
	}
	sh.w, err = tagviews.ParseWeighting(o.Weighting)
	return sh, err
}

// parseShard parses the -shard "i/n" spec strictly: trailing garbage
// must not join the cluster as the wrong partition. "" is shard 0 of 1.
func parseShard(spec string) (index, count int, err error) {
	if spec == "" {
		return 0, 1, nil
	}
	i, n, ok := strings.Cut(spec, "/")
	index, ierr := strconv.Atoi(i)
	count, nerr := strconv.Atoi(n)
	if !ok || ierr != nil || nerr != nil {
		return 0, 0, fmt.Errorf("invalid -shard %q: want i/n, e.g. 0/3", spec)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("invalid -shard %q: index must be in [0, n)", spec)
	}
	return index, count, nil
}

// Base is what a node starts from: the snapshot it serves, the catalog
// /v1/preload ranks (nil: no advisories) and, on a durable node, the
// open data directory and the checkpoint recovered from it (zero, with
// Recovered false, on a first start).
type Base struct {
	Snap       *profilestore.Snapshot
	Served     *synth.Served
	Journal    *persist.Manager
	Checkpoint persist.CheckpointMeta
	Recovered  bool
}

// Boot is the first step. A checkpoint in the data directory is the
// build plus every acked fold, so a node that finds one has no build to
// make; otherwise one streaming pass over the catalog or the dataset
// aggregates the tags this shard owns, and the snapshot adopts the sums.
func Boot(o Options) (_ *Base, err error) {
	server.HeapSamplingFor(o.PprofAddr) // before the pass: its allocations are the ones worth a profile
	sh, err := o.shape()
	if err != nil {
		return nil, err
	}
	var owns func(string) bool
	if sh.count > 1 {
		// With replicas a shard holds every tag it is any of the R owners for.
		owns = func(name string) bool { return sh.ring.Owns(name, sh.index) }
	}
	start := time.Now()
	b := &Base{}
	defer b.closeOnError(&err)
	if o.DataDir != "" {
		fsync, err := persist.ParseFsync(o.Fsync)
		if err != nil {
			return nil, err
		}
		pdir := o.DataDir // shards of one cluster can share a volume
		if sh.count > 1 {
			pdir = filepath.Join(pdir, fmt.Sprintf("shard-%d-of-%d", sh.index, sh.count))
		}
		if b.Journal, err = persist.Open(persist.Options{Dir: pdir, Fsync: fsync, Logger: sh.logger}); err != nil {
			return nil, err
		}
		if b.Snap, b.Checkpoint, b.Recovered, err = b.Journal.LoadCheckpoint(geo.DefaultWorld()); err != nil {
			return nil, err
		}
		if b.Recovered {
			sh.logger.Printf("persist: recovered checkpoint gen %d epoch %d (%d tags, %d records) from %s",
				b.Checkpoint.Gen, b.Checkpoint.Epoch, b.Snap.NumTags(), b.Snap.Records(), pdir)
		} else {
			sh.logger.Printf("persist: no checkpoint in %s, starting from the fresh build", pdir)
		}
	}
	// A recovered node wants of the pass only the catalog a standalone
	// synthetic node keeps for /v1/preload: it admits no tag, or skips it.
	keepServed := sh.count == 1 && o.Dataset == ""
	if !b.Recovered || keepServed {
		if b.Recovered {
			owns = func(string) bool { return false }
		}
		var boot *pipeline.Boot
		if o.Dataset != "" {
			sh.logger.Printf("loading dataset %s...", o.Dataset)
			boot, err = pipeline.BootFile(o.Dataset, alexa.DefaultConfig(), owns)
		} else {
			sh.logger.Printf("generating %d-video synthetic catalog (seed %d)...", o.Videos, o.Seed)
			boot, err = pipeline.BootSynthetic(o.Videos, o.Seed, alexa.DefaultConfig(), owns, keepServed)
		}
		if err != nil {
			return nil, err
		}
		b.Served = boot.Served
		if !b.Recovered {
			if b.Snap, err = profilestore.BuildAggregate(boot.Aggregate, nil); err != nil {
				return nil, err
			}
		}
	}
	what := fmt.Sprintf("%d tags", b.Snap.NumTags())
	if sh.count > 1 {
		what = fmt.Sprintf("shard %d/%d owns %s", sh.index, sh.count, what)
	}
	sh.logger.Printf("profile store: %s over %d countries (built in %s)", what, b.Snap.World().N(), time.Since(start).Round(time.Millisecond))
	return b, nil
}

// closeOnError closes the journal when the step that holds b fails.
func (b *Base) closeOnError(err *error) {
	if *err != nil && b.Journal != nil {
		_ = b.Journal.Close() // the step's own error is the one to report
	}
}

// Node is a running serve process: Server over Store, kept live by Acc
// and Comp (both nil with ingestion off).
type Node struct {
	Server   *server.Server
	Store    *profilestore.Store
	Acc      *ingest.Accumulator
	Comp     *ingest.Compactor
	logger   *log.Logger
	journal  *persist.Manager
	stopComp func() // cancels the compactor and waits for its last fold
}

// Run is cmd/serve after its flags: Boot, Start a node over the base,
// serve it on o.Addr until SIGINT or SIGTERM, drain it for o.Grace, and
// Close it.
func Run(o Options) error {
	b, err := Boot(o)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	n, err := Start(ctx, o, b)
	if err != nil {
		return err
	}
	n.logger.Printf("serving on http://%s (predict/ingest/place/preload; ^C to drain)", o.Addr)
	err = n.Server.Run(ctx, o.Addr, o.Grace)
	if cerr := n.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Start assembles a node over b and flips it ready: store and server,
// the served catalog, heap sampling, the profiler and flight recorder
// (for as long as ctx lives), then the write path.
func Start(ctx context.Context, o Options, b *Base) (_ *Node, err error) {
	defer b.closeOnError(&err)
	sh, err := o.shape()
	if err != nil {
		return nil, err
	}
	store, err := profilestore.NewStore(b.Snap)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Common: o.Server, ShardIndex: sh.index, ShardCount: sh.count,
	}, store)
	if err != nil {
		return nil, err
	}
	n := &Node{Server: srv, Store: store, logger: sh.logger, journal: b.Journal}

	// A shard's partial vocabulary would bias preload's demand fields.
	if sh.count > 1 {
		sh.logger.Printf("shard mode: /v1/preload disabled (advisories need the whole vocabulary)")
	} else if b.Served != nil {
		if err := srv.SetCatalog(b.Served, sh.w); err != nil {
			return nil, err
		}
		sh.logger.Printf("preload advisories enabled over %d catalog videos", b.Served.N())
	} else {
		sh.logger.Printf("no synthetic catalog: /v1/preload disabled")
	}

	if err := o.startTools(ctx, srv.Traces(), srv.SetPanicHook, sh.logger); err != nil {
		return nil, err
	}

	if o.IngestInterval > 0 {
		if err := n.startIngest(o, b, sh.w); err != nil {
			return nil, err
		}
	} else {
		if mgr := b.Journal; mgr != nil {
			// With no accumulator, records past the checkpoint would be acked
			// but invisible. The scan also truncates a torn (unacked) tail.
			if _, tail, err := mgr.Replay(b.Checkpoint.Gen, func([]ingest.Event, []string) error { return nil }); err != nil {
				return nil, err
			} else if tail > 0 {
				return nil, fmt.Errorf("persist: %d journaled ingest records past checkpoint gen %d would be invisible with -ingest-interval 0; start with ingestion enabled to replay them (or move the wal-*.log files aside to accept their loss)", tail, b.Checkpoint.Gen)
			}
			if err := srv.EnablePersist(mgr.Stats, nil); err != nil {
				return nil, err
			}
			srv.SetPersistHists(mgr.WALAppendHist(), mgr.CheckpointHist())
			if b.Recovered {
				sh.logger.Printf("persist: read-only daemon serving the recovered checkpoint (journal empty past it)")
			}
		}
		sh.logger.Printf("ingest disabled (-ingest-interval 0): /v1/ingest answers 503")
	}
	// Recovery, if any, is complete: admit the node to rotation.
	srv.SetReady()
	return n, nil
}

// startTools starts what runs beside either role's handler for as long
// as ctx lives: heap sampling and the profiler as PprofAddr says, and the
// flight recorder over traces, which SIGQUIT or a recovered panic (the
// hook setPanicHook installs) dumps.
func (p Process) startTools(ctx context.Context, traces *obs.TraceStore, setPanicHook func(func()), logger *log.Logger) error {
	server.HeapSamplingFor(p.PprofAddr)
	if p.PprofAddr != "" {
		if err := server.StartPprof(ctx, p.PprofAddr, logger); err != nil {
			return err
		}
	}
	if dir := p.TraceDumpDir; dir != "" {
		server.StartFlightRecorder(ctx, traces, dir, logger)
		setPanicHook(func() { server.DumpOnce(traces, dir, "panic", logger) })
	}
	return nil
}

// startIngest attaches the write path. Only Close cancels the
// compactor, so events accepted while the server drains still fold.
func (n *Node) startIngest(o Options, b *Base, w tagviews.Weighting) error {
	srv, mgr := n.Server, b.Journal
	acc, err := ingest.NewAccumulator(n.Store, o.IngestBuffer)
	if err != nil {
		return err
	}
	if err := srv.EnableIngest(acc, o.IngestInterval); err != nil {
		return err
	}
	comp, err := ingest.NewCompactor(acc, o.IngestInterval, func(d []profilestore.TagDelta, k int) error {
		return srv.ApplyDeltas(d, k, w)
	}, n.logger)
	if err != nil {
		return err
	}
	comp.SetTraceStore(srv.Traces())
	// Replica catch-up and live reshard fold before they export or
	// merge, so a moved slice carries every acked event.
	srv.SetFoldHook(comp.FoldNow)
	if mgr != nil {
		// Recovery: replay the journal past the checkpoint, then checkpoint
		// (pinning a first build, or folding the tail and pruning). Only
		// then does the WAL journal: replayed batches are on disk already.
		mgr.SetTraceStore(srv.Traces()) // bg/wal and bg/checkpoint traces
		meta := b.Checkpoint
		acc.Restore(meta.Gen, meta.Epoch)
		maxGen, applied, err := mgr.Replay(meta.Gen, acc.Replay)
		if err != nil {
			return err
		}
		if maxGen >= meta.Gen {
			acc.Restore(maxGen+1, meta.Epoch)
		}
		comp.SetCheckpoint(func(gen uint64) error {
			return mgr.SaveCheckpoint(persist.CheckpointMeta{Gen: gen, Epoch: acc.Epoch()}, n.Store.Load().Export())
		}, o.CheckpointEvery)
		if applied > 0 {
			n.logger.Printf("persist: replayed %d journal records past gen %d", applied, meta.Gen)
		}
		if _, err := comp.CheckpointNow(); err != nil {
			return err
		}
		acc.SetJournal(mgr)
		if err := srv.EnablePersist(mgr.Stats, func() (server.CheckpointStatus, error) {
			if _, err := comp.CheckpointNow(); err != nil {
				return server.CheckpointStatus{}, err
			}
			st := mgr.Stats()
			return server.CheckpointStatus{Gen: st.CheckpointGen, Epoch: st.CheckpointEpoch}, nil
		}); err != nil {
			return err
		}
		srv.SetPersistHists(mgr.WALAppendHist(), mgr.CheckpointHist())
		n.logger.Printf("persist: journaling to %s (fsync %s, checkpoint every %d folds)", o.DataDir, o.Fsync, o.CheckpointEvery)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); comp.Run(ctx) }()
	n.Acc, n.Comp, n.stopComp = acc, comp, func() { cancel(); <-done }
	n.logger.Printf("ingest enabled: folding every %s, buffer %d events", o.IngestInterval, o.IngestBuffer)
	return nil
}

// Close stops the compactor, whose last fold and checkpoint take in
// every accepted event, then closes the journal. Call it after a drain.
func (n *Node) Close() error {
	if n.stopComp != nil {
		n.stopComp()
	}
	if n.journal != nil {
		return n.journal.Close()
	}
	return nil
}
