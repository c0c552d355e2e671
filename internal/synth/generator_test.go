package synth

import (
	"hash"
	"hash/fnv"
	"reflect"
	"testing"

	"viewstags/internal/dataset"
)

// catalogHash2000 is Generate(DefaultConfig(2000)) hashed by hashVideo at
// the commit before Generate became "drain the Generator": the streaming
// form must not have moved one RNG call.
const catalogHash2000 = 0x5cc83f5e63556a5e

func hashVideo(h hash.Hash64, v *Video) {
	put := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(v.Index))
	h.Write([]byte(v.ID))
	h.Write([]byte(v.Title))
	put(uint64(v.Upload))
	h.Write([]byte(v.Category))
	put(uint64(len(v.TagIDs)))
	for _, id := range v.TagIDs {
		put(uint64(id))
	}
	put(uint64(v.TotalViews))
	put(uint64(len(v.TrueViews)))
	for _, x := range v.TrueViews {
		put(uint64(x))
	}
	put(uint64(len(v.PopVector)))
	for _, x := range v.PopVector {
		put(uint64(x))
	}
	put(uint64(v.PopState))
}

func TestGenerateMatchesPreStreamingGolden(t *testing.T) {
	cat, err := Generate(DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := range cat.Videos {
		hashVideo(h, &cat.Videos[i])
	}
	if got := h.Sum64(); got != catalogHash2000 {
		t.Fatalf("catalog hash %#x, want %#x: generation order or arithmetic changed", got, uint64(catalogHash2000))
	}
}

// TestGeneratorDrainsToGenerate pins the two ways of calling Next to the
// batch catalog: into zero Videos (what Generate does — deep-equal,
// slices owned per video) and into one reused Video (the non-retaining
// boot — same content, TrueViews and PopVector in one backing array).
func TestGeneratorDrainsToGenerate(t *testing.T) {
	for _, seed := range []uint64{20110301, 7} {
		cfg := DefaultConfig(1500)
		cfg.Seed = seed
		want, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantRecs := want.Records()

		fresh, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var drained []Video
		for {
			var v Video
			if !fresh.Next(&v) {
				break
			}
			drained = append(drained, v)
		}
		if !reflect.DeepEqual(drained, want.Videos) {
			t.Fatalf("seed %d: generator drained into zero Videos differs from Generate", seed)
		}
		got := fresh.Catalog()
		if !reflect.DeepEqual(got.Config, want.Config) || got.Vocab.N() != want.Vocab.N() {
			t.Fatalf("seed %d: generator catalog header differs from Generate's", seed)
		}
		for i := 0; i < want.Vocab.N(); i++ {
			if got.Vocab.Tag(i) != want.Vocab.Tag(i) {
				t.Fatalf("seed %d: vocabulary tag %d differs", seed, i)
			}
		}

		reuse, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cat := reuse.Catalog()
		var v Video
		var rec dataset.Record
		var trueViews *int64
		var popBacking *int
		n := 0
		for ; reuse.Next(&v); n++ {
			w := &want.Videos[n]
			if v.Index != w.Index || v.ID != w.ID || v.Title != w.Title || v.Upload != w.Upload ||
				v.Category != w.Category || v.TotalViews != w.TotalViews || v.PopState != w.PopState ||
				!sameInts(v.TagIDs, w.TagIDs) || !sameInts(v.PopVector, w.PopVector) || !sameInts(v.TrueViews, w.TrueViews) {
				t.Fatalf("seed %d: reused Video %d = %+v, want %+v", seed, n, v, *w)
			}
			if trueViews == nil {
				trueViews = &v.TrueViews[0]
			} else if trueViews != &v.TrueViews[0] {
				t.Fatalf("seed %d: video %d: TrueViews was reallocated", seed, n)
			}
			if cap(v.PopVector) > 0 {
				if p := &v.PopVector[:1][0]; popBacking == nil {
					popBacking = p
				} else if popBacking != p {
					t.Fatalf("seed %d: video %d: PopVector was reallocated", seed, n)
				}
			}
			cat.RecordInto(&rec, &v)
			if !sameRecord(&rec, &wantRecs[n]) {
				t.Fatalf("seed %d: reused Record %d = %+v, want %+v", seed, n, rec, wantRecs[n])
			}
		}
		if n != len(want.Videos) {
			t.Fatalf("seed %d: generator produced %d videos, want %d", seed, n, len(want.Videos))
		}
		if reuse.Next(&v) {
			t.Fatalf("seed %d: Next produced a video past the end", seed)
		}
	}
}

// sameInts is element equality with nil == empty (a reused Video's
// PopVector is empty-non-nil where Generate's is nil).
func sameInts[T int | int64](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameRecord(a, b *dataset.Record) bool {
	if a.VideoID != b.VideoID || a.Title != b.Title || a.Uploader != b.Uploader || a.Category != b.Category ||
		a.TotalViews != b.TotalViews || len(a.Tags) != len(b.Tags) || len(a.PopCodes) != len(b.PopCodes) ||
		!sameInts(a.PopValues, b.PopValues) {
		return false
	}
	for i := range a.Tags {
		if a.Tags[i] != b.Tags[i] {
			return false
		}
	}
	for i := range a.PopCodes {
		if a.PopCodes[i] != b.PopCodes[i] {
			return false
		}
	}
	return true
}
