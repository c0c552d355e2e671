// Command gateway is the cluster edge for a tag-partitioned serving
// tier: given the base URLs of N shard daemons (each started as
// cmd/serve -shard i/N over the same dataset), it scatter-gathers
// partial predictions into exact merged answers on /v1/predict, routes
// /v1/ingest events to the shards that own their tags, merges /v1/tags,
// and reports per-shard health and the cluster's minimum fold epoch on
// /healthz and /v1/stats (see API.md "Gateway routes" and OPERATIONS.md
// "Cluster topology"). Its flags bind into internal/node's gateway
// options, and the node's gateway role runs it.
//
// Usage:
//
//	gateway -addr 127.0.0.1:8090 \
//	        -shards http://127.0.0.1:8091,http://127.0.0.1:8092,http://127.0.0.1:8093
//
// At startup the gateway syncs against every shard's /internal/meta —
// shard identity, ring signature, country table and prior must all
// agree — retrying for -sync-wait so it can be started before (or
// while) the shards come up. SIGINT/SIGTERM drains gracefully.
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
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	o := node.DefaultGatewayOptions()
	flag.StringVar(&o.Addr, "addr", o.Addr, "listen address")
	flag.StringVar(&o.Shards, "shards", o.Shards, "comma-separated shard base URLs, in shard order (target i must run -shard i/n)")
	flag.DurationVar(&o.Grace, "grace", o.Grace, "shutdown drain timeout")
	flag.DurationVar(&o.SyncWait, "sync-wait", o.SyncWait, "how long to retry the startup shard sync (jittered exponential backoff)")
	flag.StringVar(&o.PprofAddr, "pprof-addr", o.PprofAddr, "serve net/http/pprof on this separate operator-only address (empty = off)")
	flag.StringVar(&o.TraceDumpDir, "trace-dump-dir", o.TraceDumpDir, "flight recorder: dump the retained trace ring to traces_<event>.json here on SIGQUIT or a recovered handler panic (empty = off)")
	flag.IntVar(&o.Gateway.MaxInFlight, "max-inflight", o.Gateway.MaxInFlight, "concurrent request bound")
	flag.IntVar(&o.Gateway.MaxBatch, "max-batch", o.Gateway.MaxBatch, "max items per batched predict or ingest")
	flag.BoolVar(&o.Gateway.LogRequests, "log-requests", o.Gateway.LogRequests, "log every request")
	flag.DurationVar(&o.Gateway.HealthInterval, "health-interval", o.Gateway.HealthInterval, "shard health poll cadence")
	flag.IntVar(&o.Gateway.Replicas, "replicas", o.Gateway.Replicas, "copies of each tag's slice the shard tier places (must match every shard's -replicas; 1 = unreplicated)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return node.RunGateway(ctx, o)
}
