// Command gateway is the cluster edge for a tag-partitioned serving
// tier: given the base URLs of N shard daemons (each started as
// cmd/serve -shard i/N over the same dataset), it scatter-gathers
// partial predictions into exact merged answers on /v1/predict, routes
// /v1/ingest events to the shards that own their tags, merges /v1/tags,
// and reports per-shard health and the cluster's minimum fold epoch on
// /healthz and /v1/stats (see API.md "Gateway routes" and OPERATIONS.md
// "Cluster topology"). Its flags are internal/node's gateway flag table,
// bound over the defaults, and node.RunGateway runs it.
//
// Usage:
//
//	gateway -addr 127.0.0.1:8090 \
//	        -shards http://127.0.0.1:8091,http://127.0.0.1:8092,http://127.0.0.1:8093
//
// At startup the gateway syncs against every shard's /internal/meta —
// shard identity, ring signature, country table and prior must all
// agree — retrying for -sync-wait so it can be started before (or
// while) the shards come up. SIGINT/SIGTERM drains gracefully.
package main

import (
	"flag"
	"fmt"
	"os"

	"viewstags/internal/node"
)

func main() {
	o := node.DefaultGatewayOptions()
	o.Bind(flag.CommandLine)
	flag.Parse()
	if err := node.RunGateway(o); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}
