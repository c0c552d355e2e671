package node

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/server"
)

// GatewayOptions are a gateway process's settings, one field per
// cmd/gateway flag. A nil Gateway.Logger is the standard logger.
type GatewayOptions struct {
	Addr         string
	Shards       string // comma-separated shard base URLs, in shard order
	Grace        time.Duration
	SyncWait     time.Duration
	PprofAddr    string // empty: off
	TraceDumpDir string // empty: no flight recorder
	Gateway      cluster.GatewayConfig
}

// DefaultGatewayOptions are cmd/gateway's flag defaults.
func DefaultGatewayOptions() GatewayOptions {
	cfg := cluster.DefaultGatewayConfig()
	cfg.Replicas = 1
	return GatewayOptions{
		Addr: "127.0.0.1:8090", Grace: 10 * time.Second, SyncWait: 30 * time.Second,
		TraceDumpDir: ".", Gateway: cfg,
	}
}

// shape is what both gateway steps derive from the options.
func (o *GatewayOptions) shape() (targets []string, logger *log.Logger, err error) {
	if logger = o.Gateway.Logger; logger == nil {
		logger = log.Default()
	}
	targets, err = parseTargets(o.Shards)
	return targets, logger, err
}

// parseTargets splits the -shards list: entries are trimmed and lose one
// trailing slash, and empty ones are skipped.
func parseTargets(shards string) ([]string, error) {
	if shards == "" {
		return nil, fmt.Errorf("no -shards given")
	}
	var targets []string
	for _, t := range strings.Split(shards, ",") {
		if t = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(t), "/")); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no usable targets in -shards %q", shards)
	}
	return targets, nil
}

// RunGateway is the gateway role: StartGateway, serve on o.Addr until ctx
// ends, then drain for o.Grace and Close.
func RunGateway(ctx context.Context, o GatewayOptions) error {
	g, err := StartGateway(ctx, o)
	if err != nil {
		return err
	}
	targets, logger, _ := o.shape() // StartGateway has checked them
	logger.Printf("gateway: synced %d shards, serving on http://%s (^C to drain)", len(targets), o.Addr)
	return g.Run(ctx, o.Addr, o.Grace)
}

// StartGateway assembles a gateway over o.Shards and returns it synced,
// its health loop running, for the caller to serve: the profiler and
// flight recorder (for as long as ctx lives), then the startup sync,
// retried with jittered backoff for up to o.SyncWait so a gateway can be
// started before or while its shards come up. Close stops it.
func StartGateway(ctx context.Context, o GatewayOptions) (_ *cluster.Gateway, err error) {
	server.HeapSamplingFor(o.PprofAddr)
	targets, logger, err := o.shape()
	if err != nil {
		return nil, err
	}
	cfg := o.Gateway
	cfg.Logger = logger
	g, err := cluster.NewGateway(cfg, targets)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			g.Close()
		}
	}()
	if o.PprofAddr != "" {
		if err := server.StartPprof(ctx, o.PprofAddr, logger); err != nil {
			return nil, err
		}
	}
	// Flight recorder: SIGQUIT or a recovered panic dumps the trace ring.
	if dir := o.TraceDumpDir; dir != "" {
		server.StartFlightRecorder(ctx, g.Traces(), dir, logger)
		g.SetPanicHook(func() { server.DumpOnce(g.Traces(), dir, "panic", logger) })
	}
	if err := g.SyncRetry(ctx, o.SyncWait); err != nil {
		return nil, err
	}
	g.StartHealth()
	return g, nil
}
