// Command serve is the online geo-prediction daemon (API.md,
// OPERATIONS.md): internal/node's serve flag table, bound over the
// defaults, and node.Run — boot or recover a snapshot, then serve it.
//
//	serve -addr 127.0.0.1:8091 -videos 20000
//	serve -addr 127.0.0.1:8091 -shard 0/3 -data-dir /var/lib/viewstags
package main

import (
	"flag"
	"fmt"
	"os"

	"viewstags/internal/node"
)

func main() {
	o := node.DefaultOptions()
	o.Bind(flag.CommandLine)
	flag.Parse()
	if err := node.Run(o); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
