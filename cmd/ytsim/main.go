// Command ytsim serves the simulated 2011 YouTube Data API over a
// synthetic catalog — the crawl target for cmd/crawl. Every reply is the
// API's alt=json form; a request asking for another alt gets a 400.
//
// Usage:
//
//	ytsim -videos 50000 -addr :8080 [-key KEY] [-rate 100] [-fault 0.01]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"viewstags/internal/relgraph"
	"viewstags/internal/synth"
	"viewstags/internal/xrand"
	"viewstags/internal/ytapi"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ytsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		videos  = flag.Int("videos", 20000, "catalog size to generate")
		seed    = flag.Uint64("seed", 20110301, "generation seed")
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		key     = flag.String("key", "", "required developer key (empty = open)")
		rate    = flag.Float64("rate", 0, "server-side rate limit, requests/s (0 = unlimited)")
		burst   = flag.Float64("burst", 50, "rate-limiter burst")
		fault   = flag.Float64("fault", 0, "transient 503 probability")
		latency = flag.Duration("latency", 0, "added per-request latency")
	)
	flag.Parse()

	fmt.Fprintf(os.Stderr, "generating %d-video catalog (seed %d)...\n", *videos, *seed)
	cfg := synth.DefaultConfig(*videos)
	cfg.Seed = *seed
	cat, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	graph, err := relgraph.Build(cat, xrand.NewSource(*seed).Fork("relgraph"), relgraph.DefaultConfig())
	if err != nil {
		return err
	}
	scfg := ytapi.DefaultServerConfig()
	scfg.APIKey = *key
	scfg.RatePerSec = *rate
	scfg.Burst = *burst
	scfg.FaultRate = *fault
	scfg.FaultSeed = *seed
	scfg.Latency = *latency
	api, err := ytapi.NewServer(cat, graph, scfg)
	if err != nil {
		return err
	}

	srv := &http.Server{Addr: *addr, Handler: api, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "serving GData API on http://%s (catalog: %v)\n", *addr, cat.Stats())
		errCh <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "received %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
