package profilestore_test

import (
	"bytes"
	"math"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/persist"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
)

// checkpointBytes is a snapshot as the persist codec writes it.
func checkpointBytes(t *testing.T, s *profilestore.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.WriteSnapshot(&buf, persist.CheckpointMeta{Gen: 1, Epoch: 1}, s.Export()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameSnapshot is bitwise equality of everything a snapshot serves: every
// Profile field, every vector entry, the record count, the prior, the
// by-views order and the checkpoint the codec writes of it.
func sameSnapshot(t *testing.T, what string, want, got *profilestore.Snapshot) {
	t.Helper()
	if got.NumTags() != want.NumTags() || got.Records() != want.Records() {
		t.Fatalf("%s: %d tags over %d records, want %d over %d", what, got.NumTags(), got.Records(), want.NumTags(), want.Records())
	}
	bits := math.Float64bits
	for c, x := range want.Prior() {
		if bits(got.Prior()[c]) != bits(x) {
			t.Fatalf("%s: prior[%d] = %v, want %v", what, c, got.Prior()[c], x)
		}
	}
	for id := int32(0); int(id) < want.NumTags(); id++ {
		w, g := &want.Export().Profiles[id], &got.Export().Profiles[id]
		if g.Name != w.Name || g.Videos != w.Videos || bits(g.TotalViews) != bits(w.TotalViews) ||
			g.Spread != w.Spread || g.TopCountry != w.TopCountry || bits(g.TopShare) != bits(w.TopShare) {
			t.Fatalf("%s: profile %d = %+v, want %+v", what, id, *g, *w)
		}
		for c, x := range w.Views {
			if bits(g.Views[c]) != bits(x) {
				t.Fatalf("%s: tag %q country %d = %v, want %v", what, w.Name, c, g.Views[c], x)
			}
		}
	}
	wantTop, gotTop := want.TopProfiles(want.NumTags()), got.TopProfiles(got.NumTags())
	for i := range wantTop {
		if gotTop[i].Name != wantTop[i].Name {
			t.Fatalf("%s: rank %d by views is %q, want %q", what, i, gotTop[i].Name, wantTop[i].Name)
		}
	}
	if !bytes.Equal(checkpointBytes(t, got), checkpointBytes(t, want)) {
		t.Fatalf("%s: the persist codec writes different bytes", what)
	}
}

// TestBuildAggregateAdoptsBitForBit: the consuming build over a streaming
// boot's aggregate is the copying build over the retained analysis, bit
// for bit — the whole vocabulary or the slice the boot cut — and it
// leaves the aggregate empty, while the analysis stays whole.
func TestBuildAggregateAdoptsBitForBit(t *testing.T) {
	const videos, seed = 3000, 20110301
	res, err := pipeline.FromSynthetic(videos, seed, alexa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rg, err := ring.New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard0 := func(tag string) bool { return rg.Owns(tag, 0) }
	cases := []struct {
		name string
		owns func(string) bool
	}{
		{"whole", nil},
		{"shard 0/3 cut by the boot", shard0},
	}
	for _, c := range cases {
		want, err := profilestore.BuildOwned(res.Analysis, c.owns)
		if err != nil {
			t.Fatal(err)
		}
		boot, err := pipeline.BootSynthetic(videos, seed, alexa.DefaultConfig(), c.owns, false)
		if err != nil {
			t.Fatal(err)
		}
		agg := boot.Aggregate
		names := agg.TagNames()
		if len(names) == 0 || want.NumTags() == 0 || (c.owns != nil && want.NumTags() >= res.Analysis.NumTags()) {
			t.Fatalf("%s: %d tags aggregated, %d of %d owned: the case is degenerate", c.name, len(names), want.NumTags(), res.Analysis.NumTags())
		}
		got, err := profilestore.BuildAggregate(agg)
		if err != nil {
			t.Fatal(err)
		}
		sameSnapshot(t, c.name, want, got)

		if agg.NumTags() != 0 || len(agg.TagNames()) != 0 {
			t.Fatalf("%s: the consumed aggregate still reports %d tags", c.name, agg.NumTags())
		}
		for _, name := range names {
			if _, ok := agg.TagProfile(name); ok {
				t.Fatalf("%s: the consumed aggregate still profiles %q — from a normalised vector", c.name, name)
			}
		}
		if agg.N() != got.Records() {
			t.Fatalf("%s: the consumed aggregate counts %d records, the snapshot %d", c.name, agg.N(), got.Records())
		}
		again, err := profilestore.BuildAggregate(agg)
		if err != nil {
			t.Fatal(err)
		}
		if again.NumTags() != 0 {
			t.Fatalf("%s: a second build over the consumed aggregate found %d tags", c.name, again.NumTags())
		}
	}

	// The copying build reads and leaves: the analysis builds the same
	// snapshot again.
	first, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	second, err := profilestore.Build(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "Build twice over one analysis", first, second)
}
