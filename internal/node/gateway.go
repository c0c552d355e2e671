package node

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"viewstags/internal/cluster"
)

// GatewayOptions are a gateway process's settings, one field per
// cmd/gateway flag (Bind) in Process, in Gateway.Common and here. A nil
// Gateway.Logger is the standard logger.
type GatewayOptions struct {
	Process
	Shards   string // comma-separated shard base URLs, in shard order
	SyncWait time.Duration
	Gateway  cluster.GatewayConfig
}

// DefaultGatewayOptions are cmd/gateway's flag defaults.
func DefaultGatewayOptions() GatewayOptions {
	return GatewayOptions{Process: process("127.0.0.1:8090"), SyncWait: 30 * time.Second, Gateway: cluster.DefaultGatewayConfig()}
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

// RunGateway is cmd/gateway after its flags: StartGateway, serve on
// o.Addr until SIGINT or SIGTERM, then drain for o.Grace and Close.
func RunGateway(o GatewayOptions) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	g, err := StartGateway(ctx, o)
	if err != nil {
		return err
	}
	return g.Run(ctx, o.Addr, o.Grace)
}

// StartGateway assembles a gateway over o.Shards and returns it synced,
// its health loop running, for the caller to serve: heap sampling, the
// profiler and flight recorder (for as long as ctx lives), then the
// startup sync, retried with jittered backoff for up to o.SyncWait so a
// gateway can be started before or while its shards come up. Close
// stops it.
func StartGateway(ctx context.Context, o GatewayOptions) (_ *cluster.Gateway, err error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	targets, err := parseTargets(o.Shards)
	if err != nil {
		return nil, err
	}
	cfg := o.Gateway
	cfg.Common = cfg.WithDefaults()
	g, err := cluster.NewGateway(cfg, targets)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			g.Close()
		}
	}()
	if err := o.startTools(ctx, g.Traces(), g.SetPanicHook, cfg.Logger); err != nil {
		return nil, err
	}
	if err := g.SyncRetry(ctx, o.SyncWait); err != nil {
		return nil, err
	}
	g.StartHealth()
	cfg.Logger.Printf("gateway: synced %d shards", len(targets))
	return g, nil
}
