// Command bench is the repository's benchmark: it boots the real
// cmd/serve and cmd/gateway binaries with shipping defaults, drives
// them over loopback HTTP with two closed-loop callers, checks every
// answer against an in-process single-node reference, and reports the
// end-to-end metrics declared in BENCHMARK.json (--trace 0) or the
// per-layer ledger (--trace 1: process counters, spans recorded from
// this package's own wrappers around an in-process topology, and
// direct timings of the layers' public functions). README.md documents
// every workload and metric.
//
//	go run -C bench . --workload gateway-read-b4 --seed 1 --seconds 12 --trace 0
//	go run -C bench . --suite --runs 10 --out out/a      # every workload, ten seeds
//	go run -C bench . --compare out/a out/b              # two suites, row by row
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every answer was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// record is one run as written to the output directory; --compare
// reads these back.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Error     string                 `json:"error,omitempty"`
	Detail    map[string]any         `json:"detail,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seedArg = flag.String("seed", "1", "request-stream seed: the only input that varies between runs")
		seconds = flag.Int("seconds", 12, "timed seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the per-layer ledger")
		out     = flag.String("out", "", "directory for run records (default bench/out)")
		suite   = flag.Bool("suite", false, "run every workload for -runs seeds starting at -seed, untraced, then one traced run each")
		runs    = flag.Int("runs", 10, "seeds per workload under -suite")
		compare = flag.Bool("compare", false, "compare two directories of run records: bench -compare A B")
		echo    = flag.String(echoFlag, "", "internal: serve the calibration echo on this address (the calibrator's child)")
	)
	flag.Parse()
	seed, err := parseSeed(*seedArg)
	if err != nil {
		fail(err)
	}
	if *echo != "" {
		fail(serveEcho(*echo))
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: bench -compare A B"))
		}
		if err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}

	e, err := newEnv()
	if err != nil {
		fail(err)
	}
	progress("daemons built")
	// Children die with the benchmark: on a signal, on an error, on exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	if *out == "" {
		*out = e.out
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		e.close()
		fail(err)
	}

	ok := true
	if *suite {
		for _, w := range workloads {
			for i := 0; i < *runs; i++ {
				ok = runOne(e, w, seed+uint64(i), *seconds, 0, *out) && ok
			}
			ok = runOne(e, w, seed, *seconds, 1, *out) && ok
		}
	} else {
		w, found := findWorkload(*name)
		if !found {
			e.close()
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		ok = runOne(e, w, seed, *seconds, *trace, *out)
	}
	e.close()
	if !ok {
		os.Exit(1)
	}
}

// parseSeed reads --seed as any 64-bit integer: a negative one names
// the stream of its two's complement, so no seed a caller can write is
// refused.
func parseSeed(arg string) (uint64, error) {
	if n, err := strconv.ParseUint(arg, 10, 64); err == nil {
		return n, nil
	}
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("--seed %q is not a 64-bit integer", arg)
	}
	return uint64(n), nil
}

var began = time.Now()

// progress notes on standard error where a run has got to, with the
// time since the benchmark started.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: [%5.1fs] %s\n", time.Since(began).Seconds(), fmt.Sprintf(format, args...))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne performs one run, prints its metrics by name and the result
// line, writes the run record, and reports whether every answer was
// correct.
func runOne(e *env, w workload, seed uint64, seconds, trace int, outDir string) bool {
	var res *result
	var err error
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
		res, err = runLedger(e, w, seed, seconds)
	} else {
		res, err = runEndToEnd(e, w, seed, seconds)
	}
	rec := record{Workload: w.name, Seed: seed, Trace: trace, Seconds: seconds}
	if res != nil {
		rec.Attempted, rec.Failed, rec.Detail = res.attempted, res.failed, res.detail
		if err == nil {
			rec.Metrics, err = assemble(specs, res.values)
		}
	}
	if err != nil {
		rec.Error = err.Error()
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
		e.quoteLogs(os.Stderr)
	}
	rec.Correct = err == nil && rec.Failed == 0

	fmt.Printf("# %s seed=%d trace=%d seconds=%d attempted=%d failed=%d\n", w.name, seed, trace, seconds, rec.Attempted, rec.Failed)
	for _, s := range specs {
		if m, ok := rec.Metrics[s.name]; ok {
			fmt.Printf("%-42s %14.4f %s\n", s.name, m.Value, m.Unit)
		}
	}
	if res != nil {
		for _, note := range res.notes {
			fmt.Println(note)
		}
	}
	raw, jerr := json.Marshal(rec)
	if jerr == nil {
		jerr = writeFileAtomic(filepath.Join(outDir, fmt.Sprintf("run-%s-t%d-s%d.json", w.name, trace, seed)), raw)
	}
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "bench: write run record:", jerr)
		rec.Correct = false
	}
	if rec.Metrics == nil {
		return false // no result line without metrics: the caller sees the exit code
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(line))
	return rec.Correct
}
