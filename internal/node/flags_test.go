package node

import (
	"context"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// parseServe and parseGateway parse argv through a role's flag table over
// its defaults, as the binaries do.
func parseServe(t *testing.T, argv []string) Options {
	t.Helper()
	o := DefaultOptions()
	parse(t, o.Bind, argv)
	return o
}

func parseGateway(t *testing.T, argv []string) GatewayOptions {
	t.Helper()
	o := DefaultGatewayOptions()
	parse(t, o.Bind, argv)
	return o
}

func parse(t *testing.T, bind func(*flag.FlagSet), argv []string) int {
	t.Helper()
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bind(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("parse %q: %v", argv, err)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	return n
}

// TestFlagsRoundTrip: options with every flag away from its default
// render to one -name=value per flag, and that argv parses back into the
// same options over fresh defaults.
func TestFlagsRoundTrip(t *testing.T) {
	o := DefaultOptions()
	o.Process = Process{Addr: "127.0.0.1:1", Grace: 3 * time.Second, PprofAddr: "127.0.0.1:2", TraceDumpDir: ""}
	o.Server.MaxInFlight, o.Server.MaxBatch, o.Server.LogRequests, o.Server.Replicas = 7, 9, true, 2
	o.Videos, o.Seed, o.Dataset = 11, 13, "crawl.jsonl"
	o.IngestInterval, o.IngestBuffer, o.Shard = 0, 17, "1/3"
	o.DataDir, o.Fsync, o.CheckpointEvery = "a dir", "always", 0
	argv := o.Args()
	if n := parse(t, new(Options).Bind, nil); len(argv) != n {
		t.Errorf("serve: %d flags rendered, want all %d: %q", len(argv), n, argv)
	}
	if got := parseServe(t, argv); !reflect.DeepEqual(got, o) {
		t.Errorf("serve: %q parsed to\n%+v, want\n%+v", argv, got, o)
	}

	g := DefaultGatewayOptions()
	g.Process = Process{Addr: "127.0.0.1:1", Grace: time.Minute, PprofAddr: "127.0.0.1:2", TraceDumpDir: "d"}
	g.Gateway.MaxInFlight, g.Gateway.MaxBatch, g.Gateway.LogRequests, g.Gateway.Replicas = 7, 9, true, 2
	g.Shards, g.SyncWait, g.Gateway.HealthInterval = "http://a,http://b", 0, 250*time.Millisecond
	argv = g.Args()
	if n := parse(t, new(GatewayOptions).Bind, nil); len(argv) != n {
		t.Errorf("gateway: %d flags rendered, want all %d: %q", len(argv), n, argv)
	}
	if got := parseGateway(t, argv); !reflect.DeepEqual(got, g) {
		t.Errorf("gateway: %q parsed to\n%+v, want\n%+v", argv, got, g)
	}

	if argv := DefaultOptions().Args(); len(argv) != 0 {
		t.Errorf("serve defaults render %q, want no flag", argv)
	}
	if argv := DefaultGatewayOptions().Args(); len(argv) != 0 {
		t.Errorf("gateway defaults render %q, want no flag", argv)
	}
}

// TestFlagRefusals: Boot and StartGateway refuse, naming the flag and
// before any pass or sync, a flag value the daemon would otherwise
// replace without saying so; zero keeps its meaning where it has one.
func TestFlagRefusals(t *testing.T) {
	start := map[string]func([]string) error{
		"serve": func(argv []string) error {
			_, err := Boot(parseServe(t, argv)) // in memory: nothing to close
			return err
		},
		"gateway": func(argv []string) error {
			o := parseGateway(t, append([]string{"-shards=http://127.0.0.1:1", "-sync-wait=0", "-trace-dump-dir="}, argv...))
			g, err := StartGateway(context.Background(), o)
			if err == nil {
				g.Close()
			}
			return err
		},
	}
	for _, c := range []struct {
		role, argv string
		want       string // "": accepted, whatever fails later
	}{
		{"serve", "-ingest-buffer 0", "invalid -ingest-buffer 0: must be positive"},
		{"serve", "-ingest-buffer -3", "invalid -ingest-buffer -3: must be positive"},
		{"serve", "-max-inflight -4", "invalid -max-inflight -4: must be positive"},
		{"serve", "-max-inflight 0", "invalid -max-inflight 0: must be positive"},
		{"serve", "-max-batch -1", "invalid -max-batch -1: must be positive"},
		{"serve", "-ingest-interval -1s", "invalid -ingest-interval -1s: must not be negative"},
		{"serve", "-checkpoint-every -1", "invalid -checkpoint-every -1: must not be negative"},
		{"serve", "-grace -1s", "invalid -grace -1s: must not be negative"},
		{"serve", "-replicas 0", "invalid -replicas 0: must be positive"},
		{"serve", "-videos 50 -ingest-interval 0 -checkpoint-every 0 -grace 0", ""},
		{"gateway", "-health-interval 0", "invalid -health-interval 0s: must be positive"},
		{"gateway", "-health-interval -1s", "invalid -health-interval -1s: must be positive"},
		{"gateway", "-max-inflight 0", "invalid -max-inflight 0: must be positive"},
		{"gateway", "-max-batch -2", "invalid -max-batch -2: must be positive"},
		{"gateway", "-sync-wait -1s", "invalid -sync-wait -1s: must not be negative"},
		{"gateway", "-grace -1ms", "invalid -grace -1ms: must not be negative"},
		{"gateway", "-replicas 0", "invalid -replicas 0: must be positive"},
		{"gateway", "-sync-wait 0 -grace 0", ""},
	} {
		got := ""
		if err := start[c.role](strings.Fields(c.argv)); err != nil {
			got = err.Error()
		}
		if c.want == "" && strings.HasPrefix(got, "invalid -") || c.want != "" && got != c.want {
			t.Errorf("%s %s: error %q, want %q", c.role, c.argv, got, c.want)
		}
	}
}
