package scenario

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema versions the BENCH_scenarios.json layout; the comparator
// refuses files written by an incompatible engine.
const Schema = "viewstags-scenario/v1"

// PhaseResult is one phase's stream snapshot, scoped to requests that
// completed during the phase — the per-phase trajectory next to the
// run-wide totals.
type PhaseResult struct {
	Name  string  `json:"name"`
	Read  *Stream `json:"read,omitempty"`
	Write *Stream `json:"write,omitempty"`
}

// ChaosResult records one fired chaos event; for kill-shard and
// restart-gateway it carries the measured recovery time (fire →
// gateway reporting the full cluster healthy again), -1 when the run
// ended before recovery was observed.
type ChaosResult struct {
	At       float64 `json:"at_seconds"`
	Action   string  `json:"action"`
	Shard    int     `json:"shard,omitempty"`
	Recovery float64 `json:"recovery_seconds,omitempty"`
}

// ClusterResult is the scrape-derived cluster block: staleness is the
// worst max−min epoch spread seen across healthy shards in any scrape
// (a freshly recovered shard legitimately lags until its next fold;
// the SLO bounds how far).
type ClusterResult struct {
	Scrapes       int     `json:"scrapes"`
	MaxStaleness  uint64  `json:"max_staleness_epochs"`
	FinalEpoch    uint64  `json:"final_epoch"`
	FinalHealthy  int     `json:"final_healthy"`
	Shards        int     `json:"shards"`
	WorstRecovery float64 `json:"worst_recovery_seconds,omitempty"`
	// HandoffEpoch is the highest reshard handoff epoch scraped from
	// the gateway — nonzero proves a grow-cluster event actually moved
	// the tier.
	HandoffEpoch uint64 `json:"handoff_epoch,omitempty"`
}

// ScoreRow is one SLO's verdict in the scorecard. WorstTrace is the
// request id of the worst retained trace behind the row's metric (the
// stream's slowest trace for latency/throughput rows, its worst
// error/shed for rate rows) — fetch it with GET /debug/traces/{id} on
// the gateway for the stitched cross-process view. Empty when the
// gateway retained nothing matching (e.g. an error-rate row with zero
// errors) or the SLO has no single backing request (cluster rows).
type ScoreRow struct {
	Name       string  `json:"name"`
	Stream     string  `json:"stream"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Bound      string  `json:"bound"` // "max 2000" / "min 20", for humans
	Pass       bool    `json:"pass"`
	WorstTrace string  `json:"worst_trace,omitempty"`
}

// Report is the whole BENCH_scenarios.json document.
type Report struct {
	Schema         string        `json:"schema"`
	Scenario       string        `json:"scenario"`
	Spec           *Spec         `json:"spec"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	Read           *Stream       `json:"read,omitempty"`
	Write          *Stream       `json:"write,omitempty"`
	Phases         []PhaseResult `json:"phases,omitempty"`
	Cluster        ClusterResult `json:"cluster"`
	Chaos          []ChaosResult `json:"chaos,omitempty"`
	Traces         *TraceRefs    `json:"traces,omitempty"`
	Scorecard      []ScoreRow    `json:"scorecard"`
	Pass           bool          `json:"pass"`
}

// WriteFile writes the report atomically (temp + rename, the -bench-out
// discipline) so a CI artifact collector never reads a torn file.
func (r *Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("scenario: write %s: %w", path, err)
	}
	return nil
}

// ReadReport loads and schema-checks a report file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("scenario: %s has schema %q, this engine speaks %q", path, r.Schema, Schema)
	}
	return &r, nil
}
