// Serve-predict: the online serving layer end to end in one process.
//
// It builds the paper pipeline over a small synthetic catalog, starts
// the node cmd/serve runs (internal/node) over its tag profiles on an
// ephemeral loopback port, read-only, and then plays the
// client side: predict where a fresh Brazilian-tagged upload will be
// watched, ask where its replicas should go, and fetch Brazil's
// cache-preload advisory — the same session a curl user or
// cmd/scenario run -target would drive against cmd/serve.
//
//	go run ./examples/serve-predict
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/node"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve-predict:", err)
		os.Exit(1)
	}
}

func run() error {
	// Offline: pipeline → tag profiles → serving snapshot.
	res, err := pipeline.FromSynthetic(8000, 42, alexa.DefaultConfig())
	if err != nil {
		return err
	}
	snap, err := profilestore.Build(res.Analysis)
	if err != nil {
		return err
	}
	fmt.Printf("profile store: %d tags over %d countries\n\n", snap.NumTags(), snap.World().N())

	// Online: the daemon's node without its write path, with the served
	// form of the catalog that /v1/preload ranks against the snapshot
	// then serving. Serve it on an ephemeral port, drive it, shut down
	// cleanly.
	o := node.DefaultOptions()
	o.IngestInterval = 0
	o.TraceDumpDir = ""
	n, err := node.Start(context.Background(), o, &node.Base{Snap: snap, Served: res.Catalog.Served()})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.Server.Serve(ctx, ln, 2*time.Second) }()
	base := "http://" + addr
	if err := waitReady(base); err != nil {
		cancel()
		return err
	}

	fmt.Println("POST /v1/predict — where will a ['favela','samba'] upload be watched?")
	if err := show(base+"/v1/predict", server.PredictRequest{Tags: []string{"favela", "samba"}, Top: 3}); err != nil {
		cancel()
		return err
	}

	fmt.Println("\nPOST /v1/place — a US uploader posts a favela video: replicas?")
	if err := show(base+"/v1/place", server.PlaceRequest{Tags: []string{"favela"}, Upload: "US", Replicas: 3}); err != nil {
		cancel()
		return err
	}

	fmt.Println("\nPOST /v1/preload — what should Brazil's edge cache warm up?")
	if err := show(base+"/v1/preload", server.PreloadRequest{Country: "BR", Policy: "tag-push", Slots: 5}); err != nil {
		cancel()
		return err
	}

	cancel() // graceful drain
	if err := <-done; err != nil {
		return err
	}
	return n.Close()
}

// waitReady polls /readyz until the server admits traffic.
func waitReady(base string) error {
	for i := 0; i < 50; i++ {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became ready", base)
}

// show POSTs one JSON request and pretty-prints the response.
func show(url string, req any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	var v any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return err
	}
	out, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("  %s %s\n", resp.Status, out)
	return nil
}
