package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// loadRuns reads the untraced run records in dir, grouped by workload
// then metric: one value per run.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "run-*-t0-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no untraced run records (run-*-t0-*.json) in %s", dir)
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: run was not correct (%s); its numbers do not count", p, rec.Error)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, nil
}

// verdict judges one (workload, metric) pairing of two sets of runs by
// the rule the benchmark's bounds are written for: "worse" when B's
// median is worse than A's by more than the bound; "unresolved" when
// either side's run-to-run spread is wider than the bound, unless every
// run of B reads better than every run of A; otherwise "within".
func verdict(spec metricSpec, a, b []float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	worse := change
	if spec.better == "higher" {
		worse = -change
	}
	if worse > spec.bound {
		return change, "worse"
	}
	if spread(a) > spec.bound || spread(b) > spec.bound {
		if allBetter(spec, a, b) {
			return change, "within"
		}
		return change, "unresolved"
	}
	return change, "within"
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(spec metricSpec, a, b []float64) bool {
	minA, maxA := math.Inf(1), math.Inf(-1)
	for _, x := range a {
		minA, maxA = math.Min(minA, x), math.Max(maxA, x)
	}
	for _, x := range b {
		if spec.better == "higher" && x <= maxA || spec.better == "lower" && x >= minA {
			return false
		}
	}
	return true
}

// compareDirs prints one row per workload and end-to-end metric.
func compareDirs(w io.Writer, dirA, dirB string) error {
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %-12s %5s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "iqr A", "median B", "iqr B", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			va, vb := a[wl.name][spec.name], b[wl.name][spec.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, v := verdict(spec, va, vb)
			fmt.Fprintf(w, "%-20s %-12s %2d/%-2d %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.name, spec.name, len(va), len(vb), median(va), 100*spread(va), median(vb), 100*spread(vb),
				100*change, 100*spec.bound, v)
		}
	}
	return nil
}
