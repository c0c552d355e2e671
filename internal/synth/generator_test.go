package synth

import (
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"viewstags/internal/dataset"
)

// catalogHash2000 is Generate(DefaultConfig(2000)) hashed by hashVideo:
// pinned first at the commit before Generate became "drain the Generator"
// (the streaming form must not have moved one RNG call), and re-pinned
// when xrand's normals became the ziggurat's and its Gamma boost
// exp(log U / a), which move the view fields but no tag set.
const catalogHash2000 = 0x671cec91ffade493

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

// atEachGOMAXPROCS runs f as a subtest with 1, 2 and 8 Ps: the generator's
// two stages time-slicing one thread, on a core each, and among more
// threads than this box has cores. The videos must not depend on which.
func atEachGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

func TestGenerateMatchesPreStreamingGolden(t *testing.T) {
	atEachGOMAXPROCS(t, func(t *testing.T) {
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
	})
}

// TestGeneratorDrainsToGenerate pins the two ways of calling Next to the
// batch catalog: into zero Videos (what Generate does — deep-equal,
// slices owned per video) and into one reused Video (the non-retaining
// boot — same content, TrueViews and PopVector in one backing array).
func TestGeneratorDrainsToGenerate(t *testing.T) {
	atEachGOMAXPROCS(t, testGeneratorDrainsToGenerate)
}

func testGeneratorDrainsToGenerate(t *testing.T) {
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
		nC := want.World.N()
		for i := 0; i < want.Vocab.N(); i++ {
			if got.Vocab.Name(i) != want.Vocab.Name(i) ||
				!reflect.DeepEqual(got.Vocab.AffinityInto(make([]float64, nC), i), want.Vocab.AffinityInto(make([]float64, nC), i)) {
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
		reuse.Close() // after exhaustion: nothing left to stop
		if reuse.Next(&v) {
			t.Fatalf("seed %d: Next produced a video after Close", seed)
		}
	}
}

// TestDrawReadFieldsSkipsOnlyUnread: a generator told which fields are
// read hands out Generate's videos, each read one whole and every other
// one without its ground truth (and, in PopStateOK, its vector) — the
// skipped draws moved no stream, or the videos after the first skip would
// differ.
func TestDrawReadFieldsSkipsOnlyUnread(t *testing.T) {
	cfg := DefaultConfig(3000)
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, reads := range map[string]func([]int) bool{
		"every tag":   func([]int) bool { return true },
		"no tag":      func([]int) bool { return false },
		"even leader": func(ids []int) bool { return ids[0]%2 == 0 },
	} {
		t.Run(name, func(t *testing.T) {
			g, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			g.DrawReadFields(reads)
			var v Video
			drawn := 0
			for i := 0; g.Next(&v); i++ {
				w := &want.Videos[i]
				read := len(w.TagIDs) > 0 && w.PopState == PopStateOK && reads(w.TagIDs)
				if v.Index != w.Index || v.ID != w.ID || v.Title != w.Title || v.Upload != w.Upload ||
					v.Category != w.Category || v.TotalViews != w.TotalViews || v.PopState != w.PopState ||
					!sameInts(v.TagIDs, w.TagIDs) {
					t.Fatalf("video %d = %+v, want %+v", i, v, *w)
				}
				switch {
				case read:
					drawn++
					if !sameInts(v.TrueViews, w.TrueViews) || !sameInts(v.PopVector, w.PopVector) {
						t.Fatalf("read video %d: field or vector differs from Generate's", i)
					}
				case len(v.TrueViews) != 0:
					t.Fatalf("unread video %d carries a field", i)
				case v.PopState == PopStateOK && len(v.PopVector) != 0:
					t.Fatalf("unread video %d carries a vector", i)
				case v.PopState != PopStateOK && !sameInts(v.PopVector, w.PopVector):
					t.Fatalf("unread video %d in %v: vector %v, want %v", i, v.PopState, v.PopVector, w.PopVector)
				}
			}
			t.Logf("%d of %d fields drawn", drawn, cfg.Videos)
		})
	}
}

// TestGeneratorCloseLeavesNoGoroutine: a generator abandoned part-way —
// what a visit error does to a boot — is stopped by Close, at whatever
// point of a batch or of the ring it was left: Close returns only once
// the producer has closed both its channels on the way out; Close is
// idempotent, works before the first Next (no producer was started), and
// ends the stream. A producer that never exits hangs Close, which the
// test binary's -timeout reports. (Counting goroutines instead raced the
// producer's last instructions after its deferred closes.)
func TestGeneratorCloseLeavesNoGoroutine(t *testing.T) {
	cfg := DefaultConfig(1000)
	for i := 0; i < 200; i++ {
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var v Video
		for n := 0; n < i; n++ { // 0 videos (never started) … 199 (six batches in)
			if !g.Next(&v) {
				t.Fatalf("generator %d ended at video %d", i, n)
			}
		}
		g.Close()
		g.Close()
		if g.Next(&v) {
			t.Fatalf("generator %d: Next produced a video after Close", i)
		}
		if i == 0 {
			if g.done != nil {
				t.Fatal("a generator closed before its first Next started a producer")
			}
			continue
		}
		select {
		case <-g.done:
		default:
			t.Fatalf("generator %d: Close returned before the producer closed done", i)
		}
		for range g.full { // the producer closed it, or this hangs
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

// TestGenerateVideosOwnTheirSlices: the generator's drafts reuse their tag
// arrays, so a retaining caller must get copies. After Generate no two
// videos' TagIDs, TrueViews or PopVector share memory and the catalog is
// still the golden one (a video left holding a ring slot's array would
// have been overwritten by the slot's next draft); and a caller that
// lends one Video for every Next is charged only for the two strings a
// video carries.
func TestGenerateVideosOwnTheirSlices(t *testing.T) {
	cat, err := Generate(DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		lo, hi uintptr
		what   string
	}
	var spans []span
	add := func(p unsafe.Pointer, bytes uintptr, video int, field string) {
		if bytes > 0 {
			spans = append(spans, span{uintptr(p), uintptr(p) + bytes, fmt.Sprintf("video %d %s", video, field)})
		}
	}
	h := fnv.New64a()
	for i := range cat.Videos {
		v := &cat.Videos[i]
		hashVideo(h, v)
		add(unsafe.Pointer(unsafe.SliceData(v.TagIDs)), uintptr(cap(v.TagIDs))*unsafe.Sizeof(int(0)), i, "TagIDs")
		add(unsafe.Pointer(unsafe.SliceData(v.TrueViews)), uintptr(cap(v.TrueViews))*unsafe.Sizeof(int64(0)), i, "TrueViews")
		add(unsafe.Pointer(unsafe.SliceData(v.PopVector)), uintptr(cap(v.PopVector))*unsafe.Sizeof(int(0)), i, "PopVector")
	}
	if got := h.Sum64(); got != catalogHash2000 {
		t.Errorf("catalog hash %#x, want %#x: a retained video was written to after Next returned it", got, uint64(catalogHash2000))
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s and %s share a backing array", spans[i-1].what, spans[i].what)
		}
	}

	const warm, runs = ringDepth * batchVideos * 4, 1000
	g, err := NewGenerator(DefaultConfig(warm + runs + 2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var v Video
	for i := 0; i < warm; i++ { // every ring slot's tag array has grown, and v's three
		g.Next(&v)
	}
	// AllocsPerRun counts the producer stage's allocations too, and
	// truncates the mean: a slot's array still growing to a longer set
	// now and then does not reach a third per video.
	if n := testing.AllocsPerRun(runs, func() { g.Next(&v) }); n > 2 {
		t.Errorf("Next into a reused Video: %v allocs per video, want at most its id and title", n)
	}
}
