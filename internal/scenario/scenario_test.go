package scenario

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestDurationJSONRoundTrip(t *testing.T) {
	d := Duration(1500 * time.Millisecond)
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `"1.5s"` {
		t.Fatalf("marshal = %s, want \"1.5s\"", raw)
	}
	var back Duration
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip = %s, want %s", back, d)
	}
	// Bare numbers are seconds.
	if err := json.Unmarshal([]byte("2.5"), &back); err != nil {
		t.Fatal(err)
	}
	if back.D() != 2500*time.Millisecond {
		t.Fatalf("numeric seconds = %s, want 2.5s", back)
	}
	if err := json.Unmarshal([]byte(`"three parsecs"`), &back); err == nil {
		t.Fatal("nonsense duration accepted")
	}
}

func TestBuiltinsAllValidate(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 3 {
		t.Fatalf("only %d builtins registered", len(names))
	}
	for _, name := range names {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatalf("builtin %s: %v", name, err)
		}
		if sc.Name != name {
			t.Fatalf("builtin %s names itself %q", name, sc.Name)
		}
		// Registry hands out fresh copies: mutating one must not leak.
		sc.Shards = 99
		again, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if again.Shards == 99 {
			t.Fatalf("builtin %s shares state across calls", name)
		}
	}
	if _, err := Builtin("no-such"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

func validSpec() *Spec {
	max := 100.0
	return &Spec{
		Name:   "t",
		Shards: 2,
		Videos: 100,
		Phases: []Phase{{Name: "p", Duration: Duration(time.Second), Rate: 10}},
		SLOs:   []SLO{{Name: "lat", Stream: "read", Metric: MetricP99, Max: &max}},
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"no phases", func(s *Spec) { s.Phases = nil }, "at least one phase"},
		{"zero rate", func(s *Spec) { s.Phases[0].Rate = 0 }, "rate must be"},
		{"bad frac", func(s *Spec) { s.Phases[0].IngestFrac = 1.5 }, "ingest_frac"},
		{"no slos", func(s *Spec) { s.SLOs = nil }, "at least one SLO"},
		{"bad metric", func(s *Spec) { s.SLOs[0].Metric = "p42_ms" }, "unknown metric"},
		{"bad stream", func(s *Spec) { s.SLOs[0].Stream = "sideways" }, "stream must be"},
		{"cluster metric on stream", func(s *Spec) { s.SLOs[0].Metric = MetricStaleness }, "cluster-scoped"},
		{"unbounded slo", func(s *Spec) { s.SLOs[0].Max = nil }, "declares no bound"},
		{"bad action", func(s *Spec) {
			s.Chaos = []ChaosEvent{{Action: "set-on-fire"}}
		}, "unknown action"},
		{"chaos after end", func(s *Spec) {
			s.Durable = true
			s.Chaos = []ChaosEvent{{At: Duration(time.Hour), Action: ActionKillShard}}
		}, "outside the"},
		{"chaos shard range", func(s *Spec) {
			s.Durable = true
			s.Chaos = []ChaosEvent{{Action: ActionKillShard, Shard: 7}}
		}, "names shard 7"},
		{"kill without durability", func(s *Spec) {
			s.Chaos = []ChaosEvent{{Action: ActionKillShard, Shard: 0}}
		}, "requires durable"},
		{"slow without delay", func(s *Spec) {
			s.Chaos = []ChaosEvent{{Action: ActionSlowShard, Shard: 0}}
		}, "needs delay"},
		{"negative fold interval", func(s *Spec) { s.FoldInterval = -1 }, "fold_interval must be >= 0"},
		{"negative health interval", func(s *Spec) { s.HealthInterval = -1 }, "health_interval must be >= 0"},
		{"negative max outstanding", func(s *Spec) { s.MaxOutstanding = -1 }, "max_outstanding must be >= 0"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	for _, tc := range []struct{ field, body string }{
		{"frobnicate", `{"name":"x","shards":1,"videos":10,"frobnicate":true}`},
		// A spec written for the gateway's deleted micro-batching window is
		// refused, not run without it.
		{"coalesce_window", `{"name":"x","shards":1,"videos":10,"coalesce_window":"2ms"}`},
	} {
		_, err := Load([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("unknown field %s not rejected: %v", tc.field, err)
		}
	}
}

func TestLoadParsesFullSpec(t *testing.T) {
	sc, err := Load([]byte(`{
		"name": "from-json",
		"shards": 2,
		"videos": 500,
		"seed": 7,
		"durable": true,
		"warmup": "500ms",
		"phases": [{"name": "p", "duration": "2s", "rate": 50, "ingest_frac": 0.2, "hot_tags": 4, "hot_frac": 0.5}],
		"chaos": [{"at": "1s", "action": "kill-shard", "shard": 1}],
		"slos": [{"name": "p99", "stream": "read", "metric": "p99_ms", "max": 800}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Phases[0].Duration.D() != 2*time.Second || sc.Chaos[0].Shard != 1 || *sc.SLOs[0].Max != 800 {
		t.Fatalf("parsed spec mangled: %+v", sc)
	}
	if got := sc.Duration(); got != 2500*time.Millisecond {
		t.Fatalf("Duration() = %s, want 2.5s", got)
	}

	// The checked-in spec the docs and CI hand to `run -target` stays
	// loadable, and attachable: no chaos, both streams declared.
	data, err := os.ReadFile("../../examples/scenarios/steady-mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	if sc, err = Load(data); err != nil {
		t.Fatal(err)
	}
	if len(sc.Chaos) != 0 || sc.Phases[0].IngestFrac <= 0 || sc.Phases[0].IngestFrac >= 1 || sc.Warmup <= 0 {
		t.Fatalf("example spec is not an attachable mixed run with warmup: %+v", sc)
	}
}
