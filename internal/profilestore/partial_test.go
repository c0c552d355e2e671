package profilestore

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"viewstags/internal/tagviews"
)

// ownerOf is a stand-in partition function for tests (the real one is
// internal/cluster's ring, which cannot be imported here without a
// cycle — BuildOwned deliberately takes a plain filter).
func ownerOf(name string, shards int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32()) % shards
}

// buildPartials builds one partial snapshot per shard over the fixture.
func buildPartials(t *testing.T, shards int) []*Snapshot {
	t.Helper()
	res := fixture(t)
	out := make([]*Snapshot, shards)
	for s := 0; s < shards; s++ {
		s := s
		snap, err := BuildOwned(res.Analysis, func(name string) bool { return ownerOf(name, shards) == s })
		if err != nil {
			t.Fatal(err)
		}
		out[s] = snap
	}
	return out
}

// TestBuildOwnedPartitions: the partial vocabularies are an exact
// disjoint cover of the full one, and the globals (records, prior,
// world) are retained in full on every shard.
func TestBuildOwnedPartitions(t *testing.T) {
	res := fixture(t)
	full := buildSnap(t)
	parts := buildPartials(t, 3)

	total := 0
	for _, p := range parts {
		total += p.NumTags()
		if p.Records() != full.Records() {
			t.Fatalf("partial records %d, full %d — the IDF numerator must stay global", p.Records(), full.Records())
		}
		prior := p.Prior()
		for c, x := range full.Prior() {
			if prior[c] != x {
				t.Fatal("partial prior differs from full prior")
			}
		}
	}
	if total != full.NumTags() {
		t.Fatalf("partials hold %d tags total, full holds %d", total, full.NumTags())
	}
	for _, name := range res.Analysis.TagNames() {
		owner := ownerOf(name, 3)
		for s, p := range parts {
			_, ok := p.Lookup(name)
			if ok != (s == owner) {
				t.Fatalf("tag %q: lookup on shard %d = %v, owner is %d", name, s, ok, owner)
			}
		}
	}
}

// TestPredictPartialMerge is the arithmetic heart of the cluster tier:
// for every weighting, summing the shards' partial mixtures and weight
// masses and normalizing reproduces the full snapshot's PredictInto
// within float tolerance, including rank-discount ordering and the
// prior fallback when no shard knows any tag.
func TestPredictPartialMerge(t *testing.T) {
	res := fixture(t)
	full := buildSnap(t)
	parts := buildPartials(t, 3)
	nC := res.World.N()

	cases := [][]string{
		{"pop"},
		{"favela", "samba"},
		{"pop", "music", "favela", "zz-unknown"},
		{"zz-unknown-1", "zz-unknown-2"}, // prior fallback
	}
	// A long mixed list exercises rank discounting across shard
	// boundaries: consecutive tags usually live on different shards.
	cases = append(cases, res.Analysis.TagNames()[:40])

	for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
		for ci, tags := range cases {
			want := make([]float64, nC)
			known := full.PredictInto(want, tags, w)

			merged := make([]float64, nC)
			buf := make([]float64, nC)
			var wSum float64
			for _, p := range parts {
				wSum += p.PredictPartialInto(buf, tags, w)
				for c, x := range buf {
					merged[c] += x
				}
			}
			if (wSum > 0) != known {
				t.Fatalf("w=%v case %d: merged wSum=%v but full known=%v", w, ci, wSum, known)
			}
			if wSum == 0 {
				copy(merged, full.Prior())
			} else {
				for c := range merged {
					merged[c] /= wSum
				}
			}
			for c := range merged {
				if math.Abs(merged[c]-want[c]) > 1e-12 {
					t.Fatalf("w=%v case %d country %d: merged %v, full %v", w, ci, c, merged[c], want[c])
				}
			}
		}
	}
}

// TestRowsMixMatchPredictInto is the cluster gateway's combine at
// package scope: each tag's Row from the shard that owns it, weighted by
// Weighting.Weight under that shard's record count, added with Mix at the
// tag's position and finished with Normalize, is the full
// snapshot's PredictInto bit for bit — repeated, unknown and all-unknown
// tags included — because it is the same kernel over the same terms in
// the same order.
func TestRowsMixMatchPredictInto(t *testing.T) {
	res := fixture(t)
	full := buildSnap(t)
	parts := buildPartials(t, 3)
	nC := res.World.N()
	names := res.Analysis.TagNames()
	cases := [][]string{
		{"favela", "samba", "favela"},
		{"zz-unknown-1", "zz-unknown-2"},
		{"zz-unknown", "pop", "music"},
		names[:40],
	}
	for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
		for ci, tags := range cases {
			want := make([]float64, nC)
			wantKnown := full.PredictInto(want, tags, w)
			got := make([]float64, nC)
			var wSum float64
			for rank, tag := range tags {
				part := parts[ownerOf(tag, 3)]
				views, videos, vec := part.Row(tag)
				if weight := w.Weight(views, videos, part.Records()); vec != nil && weight > 0 {
					wSum += Mix(got, weight, views, rank, vec)
				}
			}
			if known := Normalize(got, wSum, full.Prior()); known != wantKnown {
				t.Fatalf("w=%v case %d: known %v, PredictInto %v", w, ci, known, wantKnown)
			}
			for c := range got {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("w=%v case %d country %d: rows %v, PredictInto %v", w, ci, c, got[c], want[c])
				}
			}
		}
	}
}

// TestPredictPartialIntoMatchesPredictInto: on a full snapshot the
// partial export is PredictInto minus normalization — dividing by the
// returned weight mass reproduces it bit-for-bit (same accumulation
// order, shared code path).
func TestPredictPartialIntoMatchesPredictInto(t *testing.T) {
	full := buildSnap(t)
	nC := full.World().N()
	tags := []string{"favela", "samba", "pop"}
	want := make([]float64, nC)
	if !full.PredictInto(want, tags, tagviews.WeightIDF) {
		t.Fatal("fixture tags unknown")
	}
	got := make([]float64, nC)
	wSum := full.PredictPartialInto(got, tags, tagviews.WeightIDF)
	if wSum <= 0 {
		t.Fatalf("weight mass %v", wSum)
	}
	inv := 1 / wSum // the exact operation PredictInto applies
	for c := range got {
		if got[c]*inv != want[c] {
			t.Fatalf("country %d: partial*inv=%v, PredictInto=%v", c, got[c]*inv, want[c])
		}
	}
}

// TestRebuildOnPartialSnapshot: folding deltas into a shard's partial
// snapshot behaves exactly like the single-node fold restricted to the
// shard's tags — records grow globally, owned tags update, and new tags
// intern locally.
func TestRebuildOnPartialSnapshot(t *testing.T) {
	parts := buildPartials(t, 3)
	p := parts[0]
	nC := len(p.Prior())
	views := make([]float64, nC)
	views[3] = 100
	next, err := Rebuild(p, []TagDelta{{Name: "zz-fresh-partial", ID: -1, Views: views, Videos: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Records() != p.Records()+1 {
		t.Fatalf("records %d, want %d", next.Records(), p.Records()+1)
	}
	if next.NumTags() != p.NumTags()+1 {
		t.Fatalf("tags %d, want %d", next.NumTags(), p.NumTags()+1)
	}
	id, ok := next.Lookup("zz-fresh-partial")
	if !ok {
		t.Fatal("fresh tag not interned")
	}
	if vec, p := next.Vec(id), next.profiles[id]; vec[3] != 100 || p.TotalViews != 100 || p.TopShare != 1 {
		t.Fatalf("fresh tag sums %v of %v (top share %v), want all 100 views on country 3", vec[3], p.TotalViews, p.TopShare)
	}
}

// TestMixMatchesScalarLoop: the unrolled Mix writes, element by element,
// the bits of the plain loop dst[c] += weight/total*x, for every length from 0
// to 67 (every tail of a four-wide step) and inputs with zeros, signed
// zeros, subnormals, ±Inf and NaN, and returns the same weight. A NaN
// matches any NaN: when both operands of the add are NaN, which payload
// survives follows the compiler's operand order (a -race build orders the
// plain loop's add the other way), and no NaN reaches a reply.
func TestMixMatchesScalarLoop(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	scalar := func(dst []float64, weight, total float64, rank int, vec []float64) float64 {
		weight /= float64(rank + 1)
		for c, x := range vec {
			dst[c] += weight / total * x
		}
		return weight
	}
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		math.Inf(1), math.Inf(-1), math.NaN(), 1, 0.1, 1e308, -3.5}
	rng := rand.New(rand.NewSource(53))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 20; trial++ {
			vec, dst := make([]float64, n), make([]float64, n)
			for c := range vec {
				vec[c], dst[c] = pick(), pick()
			}
			want := append([]float64(nil), dst...)
			weight, total, rank := pick(), pick(), rng.Intn(4)
			ww, gw := scalar(want, weight, total, rank, vec), Mix(dst, weight, total, rank, vec)
			if !same(ww, gw) {
				t.Fatalf("n=%d: weight %v, want %v", n, gw, ww)
			}
			for c := range dst {
				if !same(dst[c], want[c]) {
					t.Fatalf("n=%d c=%d: %v (%#x), want %v (%#x)", n, c, dst[c], math.Float64bits(dst[c]), want[c], math.Float64bits(want[c]))
				}
			}
		}
	}
}
