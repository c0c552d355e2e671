package scenario

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"viewstags/internal/node"
)

// TestDaemonArgvMatchesHandBuilt: the argv the harness renders from a
// spec parses into the same options as the argv it used to spell flag by
// flag (the literals below), for a durable shard, a replicated shard and
// the gateway.
func TestDaemonArgvMatchesHandBuilt(t *testing.T) {
	parse := func(bind func(*flag.FlagSet), argv []string) {
		t.Helper()
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bind(fs)
		if err := fs.Parse(argv); err != nil {
			t.Fatalf("parse %q: %v", argv, err)
		}
	}
	serve := func(argv []string) node.Options {
		o := node.DefaultOptions()
		parse(o.Bind, argv)
		return o
	}
	gateway := func(argv []string) node.GatewayOptions {
		o := node.DefaultGatewayOptions()
		parse(o.Bind, argv)
		return o
	}

	durable := &Spec{Videos: 4000, Seed: 20110301, FoldInterval: Duration(300 * time.Millisecond), Durable: true}
	work := t.TempDir()
	got := shardOptions(durable, work, "127.0.0.1:4001", 1, 3).Args()
	want := []string{"-addr", "127.0.0.1:4001", "-videos", "4000", "-seed", "20110301", "-ingest-interval", "300ms",
		"-grace", "2s", "-shard", "1/3", "-data-dir", filepath.Join(work, "data")}
	if g, w := serve(got), serve(want); !reflect.DeepEqual(g, w) {
		t.Errorf("durable shard: %q parses to %+v, want %+v", got, g, w)
	}

	replicated := &Spec{Videos: 8000, Seed: 7, Replicas: 2}
	got = shardOptions(replicated, work, "127.0.0.1:4002", 0, 3).Args()
	want = []string{"-addr", "127.0.0.1:4002", "-videos", "8000", "-seed", "7", "-ingest-interval", "500ms",
		"-grace", "2s", "-shard", "0/3", "-replicas", "2"}
	if g, w := serve(got), serve(want); !reflect.DeepEqual(g, w) {
		t.Errorf("replicated shard: %q parses to %+v, want %+v", got, g, w)
	}

	targets := []string{"http://127.0.0.1:5001", "http://127.0.0.1:5002", "http://127.0.0.1:5003"}
	for _, c := range []struct {
		sc   *Spec
		want []string
	}{
		{replicated, []string{"-addr", "127.0.0.1:4000", "-shards", "http://127.0.0.1:5001,http://127.0.0.1:5002,http://127.0.0.1:5003",
			"-health-interval", "1s", "-sync-wait", "60s", "-grace", "2s", "-replicas", "2"}},
		{&Spec{HealthInterval: Duration(250 * time.Millisecond)}, []string{"-addr", "127.0.0.1:4000",
			"-shards", "http://127.0.0.1:5001,http://127.0.0.1:5002,http://127.0.0.1:5003",
			"-health-interval", "250ms", "-sync-wait", "60s", "-grace", "2s"}},
	} {
		got := gatewayOptions(c.sc, "127.0.0.1:4000", targets).Args()
		if g, w := gateway(got), gateway(c.want); !reflect.DeepEqual(g, w) {
			t.Errorf("gateway: %q parses to %+v, want %+v", got, g, w)
		}
	}
}
