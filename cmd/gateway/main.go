// Command gateway is the cluster edge for a tag-partitioned serving
// tier: given the base URLs of N shard daemons (each started as
// cmd/serve -shard i/N over the same dataset), it scatter-gathers
// partial predictions into exact merged answers on /v1/predict, routes
// /v1/ingest events to the shards that own their tags, merges /v1/tags,
// and reports per-shard health and the cluster's minimum fold epoch on
// /healthz and /v1/stats (see API.md "Gateway routes" and OPERATIONS.md
// "Cluster topology").
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
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := cluster.DefaultGatewayConfig()
	cfg.Replicas = 1
	var (
		addr      = flag.String("addr", "127.0.0.1:8090", "listen address")
		shards    = flag.String("shards", "", "comma-separated shard base URLs, in shard order (target i must run -shard i/n)")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown drain timeout")
		syncWait  = flag.Duration("sync-wait", 30*time.Second, "how long to retry the startup shard sync (jittered exponential backoff)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate operator-only address (empty = off)")
		traceDump = flag.String("trace-dump-dir", ".", "flight recorder: dump the retained trace ring to traces_<event>.json here on SIGQUIT or a recovered handler panic (empty = off)")
	)
	flag.IntVar(&cfg.MaxInFlight, "max-inflight", cfg.MaxInFlight, "concurrent request bound")
	flag.IntVar(&cfg.MaxBatch, "max-batch", cfg.MaxBatch, "max items per batched predict or ingest")
	flag.BoolVar(&cfg.LogRequests, "log-requests", cfg.LogRequests, "log every request")
	flag.DurationVar(&cfg.HealthInterval, "health-interval", cfg.HealthInterval, "shard health poll cadence")
	flag.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "copies of each tag's slice the shard tier places (must match every shard's -replicas; 1 = unreplicated)")
	flag.Parse()
	server.HeapSamplingFor(*pprofAddr)
	if *shards == "" {
		return fmt.Errorf("no -shards given")
	}
	var targets []string
	for _, t := range strings.Split(*shards, ",") {
		if t = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(t), "/")); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("no usable targets in -shards %q", *shards)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	cfg.Logger = logger
	g, err := cluster.NewGateway(cfg, targets)
	if err != nil {
		return err
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
		server.StartFlightRecorder(ctx, g.Traces(), *traceDump, logger)
		dir := *traceDump
		g.SetPanicHook(func() { server.DumpOnce(g.Traces(), dir, "panic", logger) })
	}

	// Sync with retry: shards build their profile stores at startup, so
	// give a freshly launched cluster time to assemble before giving up.
	// The schedule is jittered exponential backoff, so a fleet of
	// gateways restarting together does not probe the shards in waves.
	if err := g.SyncRetry(ctx, *syncWait); err != nil {
		return err
	}
	logger.Printf("gateway: synced %d shards, serving on http://%s (^C to drain)", len(targets), *addr)
	return g.Run(ctx, *addr, *grace)
}
