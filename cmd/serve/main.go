// Command serve is the online geo-prediction daemon: it builds tag
// geographic profiles (from a synthetic catalog, or from a crawled
// dataset file when one is supplied) into an internal/profilestore
// snapshot and serves predictions, replica-placement recommendations
// and cache-preload advisories over HTTP (see API.md for the wire
// reference and OPERATIONS.md for running it in production shape).
//
// With ingestion enabled (the default), the daemon is self-updating: it
// accepts live view events on POST /v1/ingest and folds them into the
// serving snapshot every -ingest-interval via internal/ingest, so tag
// profiles track the live stream without a restart or batch reload.
//
// Usage:
//
//	serve -addr 127.0.0.1:8091 -videos 20000
//	serve -addr 127.0.0.1:8091 -dataset crawl.jsonl
//	serve -addr 127.0.0.1:8091 -ingest-interval 2s -ingest-buffer 1000000
//	serve -addr 127.0.0.1:8091 -ingest-interval 0   # read-only daemon
//	serve -addr 127.0.0.1:8091 -shard 0/3           # one cluster shard
//	serve -addr 127.0.0.1:8091 -data-dir /var/lib/viewstags  # durable
//
// With -shard i/n the daemon serves the tag partition a shared
// consistent-hash ring (internal/cluster) assigns shard i, for use
// behind cmd/gateway — see OPERATIONS.md "Cluster topology".
//
// With -data-dir the daemon is durable (internal/persist): every acked
// ingest batch is journaled to a write-ahead log before the ack, the
// serving snapshot is checkpointed every -checkpoint-every folds (and
// at shutdown), and a restart recovers the newest checkpoint plus the
// journal tail — so a crash loses nothing that was acknowledged (and a
// shard that finds a checkpoint does not generate the corpus again). Under
// -shard i/n the state lives in a shard-<i>-of-<n> subdirectory, so
// shards can share one volume. See OPERATIONS.md "Durability &
// recovery" for fsync and checkpoint tuning.
//
// SIGINT/SIGTERM triggers a graceful shutdown that drains in-flight
// requests and folds (and, with -data-dir, checkpoints) any
// accepted-but-unfolded events.
package main

import (
	"context"
	"flag"
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
	"viewstags/internal/cluster"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/persist"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// parseShard parses the -shard "i/n" spec (0-based index), strictly —
// trailing garbage must fail fast, not silently join the cluster as
// the wrong partition. The empty spec is the standalone default:
// shard 0 of 1.
func parseShard(spec string) (index, count int, err error) {
	if spec == "" {
		return 0, 1, nil
	}
	i, n, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("invalid -shard %q: want i/n, e.g. 0/3", spec)
	}
	if index, err = strconv.Atoi(i); err == nil {
		count, err = strconv.Atoi(n)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("invalid -shard %q: want i/n, e.g. 0/3", spec)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("invalid -shard %q: index must be in [0, n)", spec)
	}
	return index, count, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8091", "listen address")
		videos       = flag.Int("videos", 20000, "synthetic catalog size (ignored with -dataset)")
		seed         = flag.Uint64("seed", 20110301, "synthetic generation seed")
		datasetPath  = flag.String("dataset", "", "crawled JSONL dataset (empty = synthesize)")
		weighting    = flag.String("weighting", "idf", "weighting for catalog preload predictions")
		maxInflight  = flag.Int("max-inflight", 256, "concurrent request bound")
		maxBatch     = flag.Int("max-batch", 1024, "max items per batched predict or ingest")
		logRequests  = flag.Bool("log-requests", false, "log every request")
		grace        = flag.Duration("grace", 10*time.Second, "shutdown drain timeout")
		ingestEvery  = flag.Duration("ingest-interval", 3*time.Second, "fold interval for live view events (0 disables /v1/ingest)")
		ingestBuffer = flag.Int("ingest-buffer", 1<<20, "max tag attributions (events x tags) buffered between folds")
		shardSpec    = flag.String("shard", "", "serve one tag partition as shard i/n (0-based, e.g. 0/3); empty = the whole vocabulary")
		replicas     = flag.Int("replicas", 1, "copies of each tag's slice the cluster ring places (must match the gateway's -replicas; 1 = unreplicated)")
		dataDir      = flag.String("data-dir", "", "durable state directory: WAL + snapshot checkpoints + crash recovery (empty = in-memory only)")
		fsyncPolicy  = flag.String("fsync", "never", "WAL/checkpoint fsync policy: always (survives power loss) or never (survives process death)")
		ckptEvery    = flag.Int("checkpoint-every", 16, "checkpoint the serving snapshot every N folds (0 = only at shutdown or via POST /v1/checkpoint)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate operator-only address (empty = off)")
		traceDump    = flag.String("trace-dump-dir", ".", "flight recorder: dump the retained trace ring to traces_<event>.json here on SIGQUIT or a recovered handler panic (empty = off)")
	)
	flag.Parse()
	server.HeapSamplingFor(*pprofAddr)

	shardIndex, shardCount, err := parseShard(*shardSpec)
	if err != nil {
		return err
	}
	// The ring is built even standalone (n=1): /internal/meta always
	// reports a signature, so a gateway can verify any node it fronts.
	// With -replicas R the ring places each tag on R distinct shards and
	// the signature covers R, so a replica-factor mismatch between shards
	// and gateway is caught at sync, not discovered as double-counting.
	ring, err := cluster.NewRingReplicas(shardCount, 0, *replicas)
	if err != nil {
		return err
	}

	w, err := tagviews.ParseWeighting(*weighting)
	if err != nil {
		return err
	}

	var owns func(string) bool
	if shardCount > 1 {
		// With replicas a shard holds every tag it is ANY of the R owners
		// for, not just the primary — Owns generalizes Owner == index.
		owns = func(name string) bool { return ring.Owns(name, shardIndex) }
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	start := time.Now()

	// Durable state first: open the data directory and, when a checkpoint
	// exists, serve the recovered snapshot — the checkpoint is the build
	// plus every fold the previous process acked, so there is no fresh
	// build to make. Shards get per-shard subdirectories so a cluster can
	// share one volume.
	var mgr *persist.Manager
	var recMeta persist.CheckpointMeta
	var snap *profilestore.Snapshot
	recovered := false
	if *dataDir != "" {
		fsync, err := persist.ParseFsync(*fsyncPolicy)
		if err != nil {
			return err
		}
		pdir := *dataDir
		if shardCount > 1 {
			pdir = filepath.Join(pdir, fmt.Sprintf("shard-%d-of-%d", shardIndex, shardCount))
		}
		if mgr, err = persist.Open(persist.Options{Dir: pdir, Fsync: fsync, Logger: logger}); err != nil {
			return err
		}
		// Both boot paths run over the default world.
		if snap, recMeta, recovered, err = mgr.LoadCheckpoint(geo.DefaultWorld()); err != nil {
			return err
		}
		if recovered {
			logger.Printf("persist: recovered checkpoint gen %d epoch %d (%d tags, %d records) from %s",
				recMeta.Gen, recMeta.Epoch, snap.NumTags(), snap.Records(), pdir)
		} else {
			logger.Printf("persist: no checkpoint in %s, starting from the fresh build", pdir)
		}
	}

	// One streaming pass builds the snapshot: the corpus is aggregated a
	// video (or a JSONL line) at a time into the sums of the tags this
	// shard owns and never held, and the snapshot adopts those sums as its
	// vectors. Only a standalone node keeps the synthetic catalog, for
	// /v1/preload — all a recovered daemon still wants of the pass, so a
	// recovered shard (or dataset node) skips it and a recovered synthetic
	// node runs it admitting no tag: nothing is aggregated or built.
	keepServed := shardCount == 1 && *datasetPath == ""
	var served *synth.Served
	if !recovered || keepServed {
		if recovered {
			owns = func(string) bool { return false }
		}
		var boot *pipeline.Boot
		if *datasetPath != "" {
			logger.Printf("loading dataset %s...", *datasetPath)
			boot, err = pipeline.BootFile(*datasetPath, alexa.DefaultConfig(), owns)
		} else {
			logger.Printf("generating %d-video synthetic catalog (seed %d)...", *videos, *seed)
			boot, err = pipeline.BootSynthetic(*videos, *seed, alexa.DefaultConfig(), owns, keepServed)
		}
		if err != nil {
			return err
		}
		served = boot.Served
		if !recovered {
			if snap, err = profilestore.BuildAggregate(boot.Aggregate, nil); err != nil {
				return err
			}
		}
	}

	store, err := profilestore.NewStore(snap)
	if err != nil {
		return err
	}
	if shardCount > 1 {
		logger.Printf("profile store: shard %d/%d owns %d tags over %d countries (built in %s)",
			shardIndex, shardCount, snap.NumTags(), snap.World().N(), time.Since(start).Round(time.Millisecond))
	} else {
		logger.Printf("profile store: %d tags over %d countries (built in %s)",
			snap.NumTags(), snap.World().N(), time.Since(start).Round(time.Millisecond))
	}

	cfg := server.DefaultConfig()
	cfg.MaxInFlight = *maxInflight
	cfg.MaxBatch = *maxBatch
	cfg.Logger = logger
	cfg.LogRequests = *logRequests
	cfg.ShardIndex = shardIndex
	cfg.ShardCount = shardCount
	cfg.Replicas = *replicas
	cfg.RingSignature = ring.Signature()
	cfg.Topology = ring
	cfg.MakeTopology = func(shards, replicas int) (server.ShardTopology, error) {
		r, err := cluster.NewRingReplicas(shards, 0, replicas)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	srv, err := server.New(cfg, store)
	if err != nil {
		return err
	}
	if mgr != nil {
		// Durable-tier background traces (bg/wal, bg/checkpoint) share
		// the node's tail-sampled ring with request traces.
		mgr.SetTraceStore(srv.Traces())
	}

	// With a synthetic catalog the daemon can also serve preload
	// advisories, each computed on request against the snapshot then
	// serving. A shard's partial vocabulary would bias the demand fields,
	// so preload advisories stay a whole-vocabulary (standalone) feature.
	if shardCount > 1 {
		logger.Printf("shard mode: /v1/preload disabled (advisories need the whole vocabulary)")
	} else if served != nil {
		if err := srv.SetCatalog(served, w); err != nil {
			return err
		}
		logger.Printf("preload advisories enabled over %d catalog videos", served.N())
	} else {
		logger.Printf("no synthetic catalog: /v1/preload disabled")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		if err := server.StartPprof(ctx, *pprofAddr, logger); err != nil {
			return err
		}
	}

	// Flight recorder: SIGQUIT dumps the tail-sampled trace ring as a
	// black box; a recovered handler panic dumps it automatically.
	if *traceDump != "" {
		server.StartFlightRecorder(ctx, srv.Traces(), *traceDump, logger)
		dir := *traceDump
		srv.SetPanicHook(func() { server.DumpOnce(srv.Traces(), dir, "panic", logger) })
	}

	// The streaming write path: accumulate /v1/ingest events and fold
	// them into fresh snapshots in the background. The compactor runs on
	// its own context, canceled only after the HTTP server has fully
	// drained — events accepted during the grace window still get their
	// final fold, keeping the "acked means folded by shutdown" promise.
	var compactorDone chan struct{}
	var compactorStop context.CancelFunc
	if *ingestEvery > 0 {
		acc, err := ingest.NewAccumulator(store, *ingestBuffer)
		if err != nil {
			return err
		}
		if err := srv.EnableIngest(acc, *ingestEvery); err != nil {
			return err
		}
		comp, err := ingest.NewCompactor(acc, *ingestEvery, func(d []profilestore.TagDelta, n int) error {
			return srv.ApplyDeltas(d, n, w)
		}, logger)
		if err != nil {
			return err
		}
		comp.SetTraceStore(srv.Traces())
		// Shard transfers (replica catch-up, live reshard) fold pending
		// deltas before exporting or merging, so transferred state is
		// never missing buffered-but-unfolded events.
		srv.SetFoldHook(comp.FoldNow)
		if mgr != nil {
			// Recovery: position the accumulator at the checkpoint's
			// generation and epoch, replay the journal tail past it,
			// then fold-and-checkpoint so the node starts serving from
			// durable, collapsed state. Only after that does the WAL
			// attach as the journal — replayed batches are already on
			// disk and must not be re-appended.
			acc.Restore(recMeta.Gen, recMeta.Epoch)
			maxGen, applied, err := mgr.Replay(recMeta.Gen, acc.Replay)
			if err != nil {
				return err
			}
			if maxGen >= recMeta.Gen {
				acc.Restore(maxGen+1, recMeta.Epoch)
			}
			comp.SetCheckpoint(func(gen uint64) error {
				return mgr.SaveCheckpoint(persist.CheckpointMeta{Gen: gen, Epoch: acc.Epoch()}, store.Load().Export())
			}, *ckptEvery)
			if applied > 0 {
				logger.Printf("persist: replayed %d journal records past gen %d", applied, recMeta.Gen)
			}
			// Always checkpoint at boot: on a first start this pins the
			// base build durably; after a crash it folds the replayed
			// tail into a fresh checkpoint and prunes the old segments.
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
			logger.Printf("persist: journaling to %s (fsync %s, checkpoint every %d folds)", *dataDir, *fsyncPolicy, *ckptEvery)
		}
		var compCtx context.Context
		compCtx, compactorStop = context.WithCancel(context.Background())
		defer compactorStop() // idempotent; the drain path cancels first
		compactorDone = make(chan struct{})
		go func() {
			defer close(compactorDone)
			comp.Run(compCtx)
		}()
		logger.Printf("ingest enabled: folding every %s, buffer %d events", *ingestEvery, *ingestBuffer)
	} else {
		if mgr != nil {
			// Read-only durable daemon: the journal cannot be folded
			// (no accumulator), so any records past the checkpoint
			// would be acked-but-invisible — refuse rather than serve
			// silently stale state. The scan also truncates a torn
			// tail, which by definition was never acked.
			tail := int64(0)
			if _, n, err := mgr.Replay(recMeta.Gen, func([]ingest.Event, []string) error { return nil }); err != nil {
				return err
			} else if tail = n; tail > 0 {
				return fmt.Errorf("persist: %d journaled ingest records past checkpoint gen %d would be invisible with -ingest-interval 0; start with ingestion enabled to replay them (or move the wal-*.log files aside to accept their loss)", tail, recMeta.Gen)
			}
			if err := srv.EnablePersist(mgr.Stats, nil); err != nil {
				return err
			}
			srv.SetPersistHists(mgr.WALAppendHist(), mgr.CheckpointHist())
			if recovered {
				logger.Printf("persist: read-only daemon serving the recovered checkpoint (journal empty past it)")
			}
		}
		logger.Printf("ingest disabled (-ingest-interval 0): /v1/ingest answers 503")
	}

	// Recovery (if any) is complete and the serving snapshot installed:
	// flip /readyz so probes admit the node to rotation.
	srv.SetReady()

	logger.Printf("serving on http://%s (predict/ingest/place/preload; ^C to drain)", *addr)
	err = srv.Run(ctx, *addr, *grace)
	if compactorDone != nil {
		// The listener is closed and in-flight requests are drained;
		// stop the compactor now so its shutdown path folds — and, with
		// -data-dir, checkpoints — everything accepted up to and
		// including the grace window: a clean stop never strands an
		// acked event.
		compactorStop()
		<-compactorDone
	}
	if mgr != nil {
		if cerr := mgr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
