package main

import (
	"fmt"
	"strings"
)

// The benchmark's declared surface: workloads, end-to-end metrics and
// the per-layer ledger. BENCHMARK.json at the repository root repeats
// the names, units and directions (its schema has no room for more);
// the layer, source and "should move" columns live here and in
// README.md. TestDeclaredEqualsEmitted keeps the two in step.

// Fixed dataset every workload serves: the request stream is the only
// thing --seed changes.
const (
	catalogVideos = 20000
	catalogSeed   = 20110301
	clusterShards = 3
	callers       = 2 // closed-loop callers, one keep-alive connection each
	probeRequests = 200
)

// workload is one traffic mix against one topology.
type workload struct {
	name    string
	why     string
	gateway bool // 3 shards behind cmd/gateway, else one cmd/serve
	batch   int  // items per predict request
	mixed   bool // 80% predict / 20% ingest, else read-only
	durable bool // node runs with -data-dir (WAL + checkpoints)
}

var workloads = []workload{
	{name: "node-read-b4", batch: 4,
		why: "one serve, batch-4 predicts: per-request edge cost (JSON, middleware, net/http) dominates; the one-node reference"},
	{name: "gateway-read-b4", gateway: true, batch: 4,
		why: "3 shards behind the gateway, same stream: fan-out legs, net/http client and merge dominate; the gateway-tax row"},
	{name: "gateway-read-b32", gateway: true, batch: 32,
		why: "same topology, batch 32: per-item work (wire slabs, merge, partial predict, JSON encode) dominates, per-request cost is amortised"},
	{name: "node-mixed-durable", batch: 4, mixed: true, durable: true,
		why: "one durable serve, 80% predict / 20% ingest: folds, WAL appends and checkpoints run beside reads while cluster is idle"},
	{name: "gateway-mixed", gateway: true, batch: 4, mixed: true,
		why: "in-memory shards behind the gateway, same 80/20 mix: ring-owner split and JSON internal ingest with persist idle"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec declares one metric. layer, source and moves are set for
// per-layer metrics only.
type metricSpec struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	layer  string
	source string // call | span | proc
	moves  move   // the end-to-end metric and workload it should move
}

type move struct{ metric, workload string }

// endToEnd is what a caller of the system sees, measured with tracing
// off against the real binaries. Every workload reports every one.
// The bounds are the widest the benchmark contract allows: on this box
// the run-to-run spread of each is a third of that or more (README.md,
// "Noise").
var endToEnd = []metricSpec{
	{name: "preds_per_s", unit: "preds/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	nodeB4  = "node-read-b4"
	gwB4    = "gateway-read-b4"
	gwB32   = "gateway-read-b32"
	durable = "node-mixed-durable"
	gwMixed = "gateway-mixed"
)

// row declares a per-layer metric; its layer is the name's prefix.
func row(source, name, unit string, metric, workload string) metricSpec {
	layer, _, _ := strings.Cut(name, ".")
	return metricSpec{name: name, unit: unit, better: "lower", layer: layer, source: source, moves: move{metric, workload}}
}

func higher(s metricSpec) metricSpec { s.better = "higher"; return s }

// perLayer is the ledger: one row per layer quantity, with the
// end-to-end metric and workload a change to it should show up on.
var perLayer = []metricSpec{
	row("call", "profilestore.predict_ns_per_item", "ns", "preds_per_s", gwB32),
	row("call", "profilestore.predict_allocs_per_item", "count", "preds_per_s", gwB32),
	row("call", "profilestore.predict_partial_ns_per_item", "ns", "preds_per_s", gwB32),
	row("call", "profilestore.rebuild_ms", "ms", "e2e.p99_ms_durable", durable),
	row("call", "profilestore.export_import_ms", "ms", "e2e.p99_ms_durable", durable),
	row("call", "profilestore.build_ms", "ms", "setup_s", nodeB4),
	row("call", "profilestore.snapshot_mb", "MB", "rss_mb", nodeB4),

	row("call", "server.predict_handler_us_b4", "us", "preds_per_s", nodeB4),
	row("call", "server.predict_handler_allocs_b4", "count", "preds_per_s", nodeB4),
	row("span", "server.handler_span_us_b4", "us", "p50_ms", nodeB4),
	row("span", "server.loopback_us_b4", "us", "p50_ms", nodeB4),
	row("call", "server.internal_handler_us_b4", "us", "preds_per_s", gwB4),
	row("call", "server.internal_handler_us_b32", "us", "preds_per_s", gwB32),
	row("call", "server.internal_handler_allocs_b4", "count", "preds_per_s", gwB4),
	row("call", "server.wire_req_encode_ns_b32", "ns", "preds_per_s", gwB32),
	row("call", "server.wire_req_decode_ns_b32", "ns", "preds_per_s", gwB32),
	row("call", "server.wire_resp_encode_ns_b32", "ns", "preds_per_s", gwB32),
	row("call", "server.wire_resp_decode_ns_b32", "ns", "preds_per_s", gwB32),
	row("call", "server.wire_resp_bytes_per_item", "bytes", "preds_per_s", gwB32),
	row("call", "server.edge_json_bytes_per_item", "bytes", "preds_per_s", gwB32),
	row("call", "server.ingest_handler_us_b4", "us", "preds_per_s", durable),
	row("proc", "server.cpu_us_per_pred_b4", "us", "preds_per_s", nodeB4),

	row("span", "cluster.gateway_self_us_b4", "us", "p50_ms", gwB4),
	row("span", "cluster.gateway_self_us_b32", "us", "p50_ms", gwB32),
	row("span", "cluster.leg_us_b4", "us", "p50_ms", gwB4),
	row("span", "cluster.leg_us_b32", "us", "preds_per_s", gwB32),
	row("span", "cluster.hop_us_b4", "us", "preds_per_s", gwB4),
	row("span", "cluster.hop_us_b32", "us", "preds_per_s", gwB32),
	row("span", "cluster.slowest_leg_us_b4", "us", "e2e.p99_ms_gateway_b4", gwB4),
	row("span", "cluster.leg_skew_b4", "ratio", "p50_ms", gwB4),
	row("span", "cluster.legs_per_req", "count", "preds_per_s", gwB4),
	row("call", "cluster.gateway_allocs_b4", "count", "e2e.p99_ms_gateway_b4", gwB4),
	row("span", "cluster.ingest_self_us_b4", "us", "preds_per_s", gwMixed),
	row("span", "cluster.ingest_legs_per_req", "count", "preds_per_s", gwMixed),
	row("call", "cluster.ring_owner_ns", "ns", "preds_per_s", gwMixed),
	row("proc", "cluster.gateway_cpu_share_b4", "ratio", "preds_per_s", gwB4),
	row("proc", "cluster.gateway_cpu_share_b32", "ratio", "preds_per_s", gwB32),
	row("proc", "cluster.cpu_us_per_pred_b4", "us", "preds_per_s", gwB4),

	row("call", "ingest.add_ns_per_event", "ns", "preds_per_s", gwMixed),
	row("call", "ingest.drain_ms", "ms", "e2e.p99_ms_durable", durable),
	row("call", "ingest.fold_ms", "ms", "e2e.p99_ms_durable", durable),
	row("call", "ingest.fold_touched_tags", "count", "e2e.p99_ms_durable", durable),

	row("call", "persist.wal_append_us_per_record", "us", "preds_per_s", durable),
	row("call", "persist.wal_bytes_per_event", "bytes", "preds_per_s", durable),
	row("call", "persist.checkpoint_save_ms", "ms", "e2e.p99_ms_durable", durable),
	row("call", "persist.checkpoint_mb", "MB", "e2e.p99_ms_durable", durable),
	row("call", "persist.checkpoint_load_ms", "ms", "setup_s", durable),
	row("call", "persist.replay_us_per_record", "us", "setup_s", durable),

	row("call", "obs.hist_observe_ns", "ns", "preds_per_s", nodeB4),
	row("call", "obs.span_add_ns", "ns", "preds_per_s", nodeB4),

	row("call", "pipeline.run_ms", "ms", "setup_s", nodeB4),

	row("proc", "proc.boot_s_node", "s", "setup_s", nodeB4),
	row("proc", "proc.boot_s_cluster", "s", "setup_s", gwB4),
	row("proc", "proc.serve_rss_mb", "MB", "rss_mb", nodeB4),
	row("proc", "proc.gateway_rss_mb", "MB", "rss_mb", gwB4),

	row("span", "bench.trace_overhead_pct", "%", "preds_per_s", gwB4),
	row("proc", "bench.segment_spread_pct", "%", "preds_per_s", gwB4),

	// Whole-system quantities that cannot be end-to-end metrics under
	// the benchmark contract, reported here unbounded. The write-side
	// ones exist on the mixed workloads only (the contract wants every
	// end-to-end metric on every workload, never 0); the closed-loop
	// interleave still gates them through preds_per_s. The p99s spread
	// too widely from run to run on this box for any allowed bound.
	higher(row("proc", "e2e.events_per_s_durable", "events/s", "preds_per_s", durable)),
	higher(row("proc", "e2e.events_per_s_gateway", "events/s", "preds_per_s", gwMixed)),
	row("proc", "e2e.ingest_p99_ms_durable", "ms", "e2e.p99_ms_durable", durable),
	row("proc", "e2e.ingest_p99_ms_gateway", "ms", "e2e.p99_ms_gateway_mixed", gwMixed),
	row("proc", "e2e.recover_s", "s", "setup_s", durable),
	row("proc", "e2e.p99_ms_node_b4", "ms", "p50_ms", nodeB4),
	row("proc", "e2e.p99_ms_gateway_b4", "ms", "p50_ms", gwB4),
	row("proc", "e2e.p99_ms_gateway_b32", "ms", "p50_ms", gwB32),
	row("proc", "e2e.p99_ms_durable", "ms", "p50_ms", durable),
	row("proc", "e2e.p99_ms_gateway_mixed", "ms", "p50_ms", gwMixed),
}

// metricValue is one measured number as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// assemble pairs measured values with their declared units, and fails
// when a declared metric was not measured or an undeclared one was —
// the run-time half of "declared = emitted".
func assemble(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared but not measured", s.name)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s measured but not declared", name)
		}
	}
	return out, nil
}
