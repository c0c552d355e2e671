// Command serve is the online geo-prediction daemon (API.md,
// OPERATIONS.md): its flags, bound into internal/node's options, and the
// node's two steps — boot or recover a snapshot, then serve it.
//
//	serve -addr 127.0.0.1:8091 -videos 20000
//	serve -addr 127.0.0.1:8091 -shard 0/3 -data-dir /var/lib/viewstags
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"viewstags/internal/node"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	o := node.DefaultOptions()
	flag.StringVar(&o.Addr, "addr", o.Addr, "listen address")
	flag.IntVar(&o.Videos, "videos", o.Videos, "synthetic catalog size (ignored with -dataset)")
	flag.Uint64Var(&o.Seed, "seed", o.Seed, "synthetic generation seed")
	flag.StringVar(&o.Dataset, "dataset", o.Dataset, "crawled JSONL dataset (empty = synthesize)")
	flag.StringVar(&o.Weighting, "weighting", o.Weighting, "weighting for catalog preload predictions")
	flag.IntVar(&o.Server.MaxInFlight, "max-inflight", o.Server.MaxInFlight, "concurrent request bound")
	flag.IntVar(&o.Server.MaxBatch, "max-batch", o.Server.MaxBatch, "max items per batched predict or ingest")
	flag.BoolVar(&o.Server.LogRequests, "log-requests", o.Server.LogRequests, "log every request")
	flag.DurationVar(&o.Grace, "grace", o.Grace, "shutdown drain timeout")
	flag.DurationVar(&o.IngestInterval, "ingest-interval", o.IngestInterval, "fold interval for live view events (0 disables /v1/ingest)")
	flag.IntVar(&o.IngestBuffer, "ingest-buffer", o.IngestBuffer, "max tag attributions (events x tags) buffered between folds")
	flag.StringVar(&o.Shard, "shard", o.Shard, "serve one tag partition as shard i/n (0-based, e.g. 0/3); empty = the whole vocabulary")
	flag.IntVar(&o.Server.Replicas, "replicas", o.Server.Replicas, "copies of each tag's slice the cluster ring places (must match the gateway's -replicas; 1 = unreplicated)")
	flag.StringVar(&o.DataDir, "data-dir", o.DataDir, "durable state directory: WAL + snapshot checkpoints + crash recovery (empty = in-memory only)")
	flag.StringVar(&o.Fsync, "fsync", o.Fsync, "WAL/checkpoint fsync policy: always (survives power loss) or never (survives process death)")
	flag.IntVar(&o.CheckpointEvery, "checkpoint-every", o.CheckpointEvery, "checkpoint the serving snapshot every N folds (0 = only at shutdown or via POST /v1/checkpoint)")
	flag.StringVar(&o.PprofAddr, "pprof-addr", o.PprofAddr, "serve net/http/pprof on this separate operator-only address (empty = off)")
	flag.StringVar(&o.TraceDumpDir, "trace-dump-dir", o.TraceDumpDir, "flight recorder: dump the retained trace ring to traces_<event>.json here on SIGQUIT or a recovered handler panic (empty = off)")
	flag.Parse()

	b, err := node.Boot(o)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return node.Run(ctx, o, b)
}
