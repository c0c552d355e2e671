package server

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// pprofHandler returns the net/http/pprof surface (/debug/pprof/...)
// on a private mux, so the daemons can expose profiling on a separate,
// operator-only listener (-pprof-addr) without registering anything on
// http.DefaultServeMux or mixing diagnostics into the serving mux —
// the serving tier's limiter and metrics never see profile scrapes,
// and the public port never leaks heap dumps. See OPERATIONS.md
// "Profiling".
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartPprof listens on addr and serves pprofHandler in the background
// until ctx ends — the shared -pprof-addr implementation of cmd/serve
// and cmd/gateway. The listen itself is synchronous so a bad address
// fails startup loudly instead of logging from a goroutine.
func StartPprof(ctx context.Context, addr string, logger *log.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go func() {
		if err := ServeHandler(ctx, ln, pprofHandler(), time.Second, nil); err != nil {
			logger.Printf("pprof: %v", err)
		}
	}()
	logger.Printf("pprof listening on http://%s/debug/pprof/", ln.Addr())
	return nil
}

// HeapSamplingFor turns the runtime's heap sampling off in a daemon whose
// -pprof-addr is empty: net/http/pprof is linked either way, so the
// runtime would otherwise sample an allocation every 512 KB and keep its
// bucket table resident (a few hundred KB on a booted daemon) with no
// listener to read /debug/pprof/heap from. With an address the default
// rate stands. Call it once, right after flag parsing — before the build
// pass, whose allocations are the ones worth a profile.
func HeapSamplingFor(pprofAddr string) {
	if pprofAddr == "" {
		runtime.MemProfileRate = 0
	}
}
