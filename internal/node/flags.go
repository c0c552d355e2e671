package node

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"viewstags/internal/server"
)

// Process is what a process of either role takes beside its role's own
// settings: where it listens, how long it drains, its profiler and its
// flight recorder.
type Process struct {
	Addr         string
	Grace        time.Duration
	PprofAddr    string // empty: off
	TraceDumpDir string // empty: no flight recorder
}

func process(addr string) Process {
	return Process{Addr: addr, Grace: 10 * time.Second, TraceDumpDir: "."}
}

// bind registers the flags both roles take, bound to p and c.
func (p *Process) bind(fs *flag.FlagSet, c *server.Common) {
	fs.StringVar(&p.Addr, "addr", p.Addr, "listen address")
	fs.DurationVar(&p.Grace, "grace", p.Grace, "shutdown drain timeout")
	fs.StringVar(&p.PprofAddr, "pprof-addr", p.PprofAddr, "serve net/http/pprof on this separate operator-only address (empty = off)")
	fs.StringVar(&p.TraceDumpDir, "trace-dump-dir", p.TraceDumpDir, "flight recorder: dump the retained trace ring to traces_<event>.json here on SIGQUIT or a recovered handler panic (empty = off)")
	fs.IntVar(&c.MaxInFlight, "max-inflight", c.MaxInFlight, "concurrent request bound")
	fs.IntVar(&c.MaxBatch, "max-batch", c.MaxBatch, "max items per batched predict or ingest")
	fs.BoolVar(&c.LogRequests, "log-requests", c.LogRequests, "log every request")
	fs.IntVar(&c.Replicas, "replicas", c.Replicas, "copies of each tag's slice the cluster ring places (every shard and the gateway must agree; 1 = unreplicated)")
}

// Bind registers cmd/serve's flags on fs, bound to o's fields, whose
// values are the defaults.
func (o *Options) Bind(fs *flag.FlagSet) {
	o.Process.bind(fs, &o.Server)
	fs.IntVar(&o.Videos, "videos", o.Videos, "synthetic catalog size (ignored with -dataset)")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "synthetic generation seed")
	fs.StringVar(&o.Dataset, "dataset", o.Dataset, "crawled JSONL dataset (empty = synthesize)")
	fs.DurationVar(&o.IngestInterval, "ingest-interval", o.IngestInterval, "fold interval for live view events (0 disables /v1/ingest)")
	fs.IntVar(&o.IngestBuffer, "ingest-buffer", o.IngestBuffer, "max tag attributions (events x tags) buffered between folds")
	fs.StringVar(&o.Shard, "shard", o.Shard, "serve one tag partition as shard i/n (0-based, e.g. 0/3); empty = the whole vocabulary")
	fs.StringVar(&o.DataDir, "data-dir", o.DataDir, "durable state directory: WAL + snapshot checkpoints + crash recovery (empty = in-memory only)")
	fs.StringVar(&o.Fsync, "fsync", o.Fsync, "WAL/checkpoint fsync policy: always (survives power loss) or never (survives process death)")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", o.CheckpointEvery, "checkpoint the serving snapshot every N folds (0 = only at shutdown or via POST /v1/checkpoint)")
}

// Bind registers cmd/gateway's flags on fs, bound to o's fields, whose
// values are the defaults.
func (o *GatewayOptions) Bind(fs *flag.FlagSet) {
	o.Process.bind(fs, &o.Gateway.Common)
	fs.StringVar(&o.Shards, "shards", o.Shards, "comma-separated shard base URLs, in shard order (target i must run -shard i/n)")
	fs.DurationVar(&o.SyncWait, "sync-wait", o.SyncWait, "how long to retry the startup shard sync (jittered exponential backoff)")
	fs.DurationVar(&o.Gateway.HealthInterval, "health-interval", o.Gateway.HealthInterval, "shard health poll cadence")
}

// Args is the cmd/serve argv that Bind parses into o.
func (o Options) Args() []string {
	d := DefaultOptions()
	return args(d.Bind, &d, o)
}

// Args is the cmd/gateway argv that Bind parses into o.
func (o GatewayOptions) Args() []string {
	d := DefaultGatewayOptions()
	return args(d.Bind, &d, o)
}

// args binds the flags to *def, sets *def to o, and renders -name=value
// for each flag whose value now differs from its default.
func args[T any](bind func(*flag.FlagSet), def *T, o T) []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	bind(fs)
	*def = o
	var argv []string
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			argv = append(argv, "-"+f.Name+"="+v)
		}
	})
	return argv
}

// The checks refuse each flag value a daemon would otherwise replace or
// misreport without saying so. Zero keeps its meaning where it has one.
func (p *Process) check(c *server.Common) error {
	return errors.Join(nonNegative("grace", p.Grace),
		positive("max-inflight", c.MaxInFlight), positive("max-batch", c.MaxBatch), positive("replicas", c.Replicas))
}

func (o *Options) check() error {
	return errors.Join(o.Process.check(&o.Server), nonNegative("ingest-interval", o.IngestInterval),
		positive("ingest-buffer", o.IngestBuffer), nonNegative("checkpoint-every", o.CheckpointEvery))
}

func (o *GatewayOptions) check() error {
	return errors.Join(o.Process.check(&o.Gateway.Common), nonNegative("sync-wait", o.SyncWait),
		positive("health-interval", o.Gateway.HealthInterval))
}

func nonNegative[T int | time.Duration](name string, v T) error {
	if v < 0 {
		return fmt.Errorf("invalid -%s %v: must not be negative", name, v)
	}
	return nil
}

func positive[T int | time.Duration](name string, v T) error {
	if v <= 0 {
		return fmt.Errorf("invalid -%s %v: must be positive", name, v)
	}
	return nil
}
