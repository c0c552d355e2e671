// Command scenario is the chaos/SLO harness CLI over internal/scenario:
// it boots a real serve/gateway cluster, drives a scripted open-loop
// workload with injected faults, scores the run against the scenario's
// SLOs and writes the machine-readable BENCH_scenarios.json trajectory
// artifact. With -target it boots nothing and drives the same phases,
// scored the same way, at a daemon that is already running (a node or a
// gateway; the spec's videos and seed must be the daemon's, and it may
// declare no chaos).
//
// Usage:
//
//	scenario list
//	scenario run -scenario chaos-smoke -out BENCH_scenarios.json
//	scenario run -spec my-scenario.json -serve-bin ./serve -gateway-bin ./gateway
//	scenario run -target http://127.0.0.1:8091 -spec examples/scenarios/steady-mixed.json
//	scenario compare -baseline BENCH_scenarios.json -run /tmp/new.json
//
// `run` exits 0 only when the run completed AND every SLO passed.
// `compare` exits 0 when the run is within tolerance of the baseline
// (improvements warn, regressions fail) — the CI trajectory gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"viewstags/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "compare":
		err = compareCmd(os.Args[2:])
	case "list":
		err = listCmd()
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  scenario list                       show builtin scenarios
  scenario run [flags]                run one scenario, score its SLOs
  scenario compare [flags]            diff a run against a baseline
run flags:
  -scenario NAME   builtin scenario (see list)
  -spec FILE       JSON spec instead of a builtin
  -out FILE        write BENCH_scenarios.json here (default BENCH_scenarios.json)
  -target URL      drive a running node or gateway at this base URL: nothing is
                   built or booted, the spec may declare no chaos, and the flags
                   below that shape a booted tier have no effect
  -serve-bin PATH  prebuilt cmd/serve (default: go build into the workdir)
  -gateway-bin PATH  prebuilt cmd/gateway
  -workdir DIR     scratch dir (default: temp, removed)
  -keep            keep the workdir for debugging
  -race            build the daemons with the race detector
  -trace-dump-dir DIR  flight-recorder dump directory (default: next to -out)
compare flags:
  -baseline FILE   checked-in baseline report
  -run FILE        fresh run report
  -tolerance F     relative regression budget (default 0.15)
  -latency-slack F tolerance multiplier for latency quantiles (default 3)
`)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		name     = fs.String("scenario", "", "builtin scenario name")
		specPath = fs.String("spec", "", "JSON spec file (overrides -scenario)")
		out      = fs.String("out", "BENCH_scenarios.json", "report output path")
		target   = fs.String("target", "", "base URL of a running node or gateway to drive instead of booting a tier (the spec may declare no chaos)")
		serveBin = fs.String("serve-bin", "", "prebuilt cmd/serve binary")
		gwBin    = fs.String("gateway-bin", "", "prebuilt cmd/gateway binary")
		workdir  = fs.String("workdir", "", "scratch directory (default: temp)")
		keep     = fs.Bool("keep", false, "keep the workdir afterward")
		race     = fs.Bool("race", false, "race-instrument the built daemons")
		dumpDir  = fs.String("trace-dump-dir", "", "flight recorder: write traces_<event>.json here on chaos events and SLO breaches (default: next to -out)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sc *scenario.Spec
	switch {
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if sc, err = scenario.Load(data); err != nil {
			return err
		}
	case *name != "":
		var err error
		if sc, err = scenario.Builtin(*name); err != nil {
			return err
		}
	default:
		return fmt.Errorf("run needs -scenario or -spec")
	}
	dir := *dumpDir
	if dir == "" {
		dir = filepath.Dir(*out)
	}
	rep, err := scenario.Run(sc, scenario.RunOptions{
		Target:  *target,
		Bins:    scenario.Binaries{Serve: *serveBin, Gateway: *gwBin},
		Workdir: *workdir,
		Keep:    *keep,
		Race:    *race,
		DumpDir: dir,
	})
	if err != nil {
		return err
	}
	if err := rep.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	fmt.Print(scenario.Scorecard(rep))
	if !rep.Pass {
		return fmt.Errorf("SLO breach (see scorecard)")
	}
	return nil
}

func compareCmd(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	var (
		basePath = fs.String("baseline", "", "baseline report path")
		runPath  = fs.String("run", "", "fresh run report path")
		tol      = fs.Float64("tolerance", 0.15, "relative regression budget")
		slack    = fs.Float64("latency-slack", 3, "tolerance multiplier for latency quantiles")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *runPath == "" {
		return fmt.Errorf("compare needs -baseline and -run")
	}
	base, err := scenario.ReadReport(*basePath)
	if err != nil {
		return err
	}
	cur, err := scenario.ReadReport(*runPath)
	if err != nil {
		return err
	}
	res, err := scenario.Compare(base, cur, &scenario.CompareOptions{Tolerance: *tol, LatencySlack: *slack})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if res.Regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond tolerance", res.Regressions)
	}
	return nil
}

func listCmd() error {
	for _, name := range scenario.BuiltinNames() {
		sc, err := scenario.Builtin(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %s\n", name, sc.Description)
	}
	return nil
}
