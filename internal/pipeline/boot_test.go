package pipeline

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/dataset"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
)

const bootSeed = 20110301 // the daemons' and the benchmark's default

// exportHashes is hashExport of profilestore.Build(FromSynthetic(videos,
// bootSeed).Analysis), by catalog size, since snapshots store each tag's
// exact view sums (every reconstructed field rounded to
// tagviews.ViewUnit): neither path may move a bit.
var exportHashes = map[int]uint64{2000: 0x30820c21fc407928, 20000: 0x4f8dba310d786aac}

func hashExport(d profilestore.SnapshotData) uint64 {
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, c := range d.Codes {
		h.Write([]byte(c))
	}
	put(uint64(d.Records))
	for _, x := range d.Prior {
		put(math.Float64bits(x))
	}
	for i, p := range d.Profiles {
		put(uint64(p.ID))
		h.Write([]byte(p.Name))
		put(uint64(p.Videos))
		put(math.Float64bits(p.TotalViews))
		put(uint64(p.Spread))
		put(uint64(p.TopCountry))
		put(math.Float64bits(p.TopShare))
		for _, x := range d.Vecs[i] {
			put(math.Float64bits(x))
		}
	}
	return h.Sum64()
}

// sameExport is bitwise equality of two snapshots' persistable content:
// names, ids, video counts, totals, spread, top country and share, every
// vector entry, the record count and the prior.
func sameExport(t *testing.T, what string, want, got profilestore.SnapshotData) {
	t.Helper()
	if !reflect.DeepEqual(want.Codes, got.Codes) || want.Records != got.Records {
		t.Fatalf("%s: codes/records differ: %d vs %d records", what, got.Records, want.Records)
	}
	if len(want.Profiles) != len(got.Profiles) || len(want.Vecs) != len(got.Vecs) {
		t.Fatalf("%s: %d profiles, want %d", what, len(got.Profiles), len(want.Profiles))
	}
	if hashExport(want) == hashExport(got) {
		return
	}
	for i := range want.Profiles {
		if want.Profiles[i] != got.Profiles[i] {
			t.Fatalf("%s: profile %d = %+v, want %+v", what, i, got.Profiles[i], want.Profiles[i])
		}
		for c := range want.Vecs[i] {
			if math.Float64bits(want.Vecs[i][c]) != math.Float64bits(got.Vecs[i][c]) {
				t.Fatalf("%s: tag %q country %d = %v, want %v", what, want.Profiles[i].Name, c, got.Vecs[i][c], want.Vecs[i][c])
			}
		}
	}
	t.Fatalf("%s: exports hash differently (prior?)", what)
}

// slices enumerates the partitions the equivalence is pinned on: the
// whole vocabulary, no tag at all (a recovered standalone node's pass,
// which draws no view field), and each of three shards' Ring.Owns at R=1
// and R=2.
func slices(t *testing.T) (names []string, owns []func(string) bool) {
	t.Helper()
	names = []string{"whole", "none"}
	owns = []func(string) bool{nil, func(string) bool { return false }}
	for _, r := range []int{1, 2} {
		rg, err := ring.New(3, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			i := i
			names = append(names, fmt.Sprintf("R%d/shard%d", r, i))
			owns = append(owns, func(tag string) bool { return rg.Owns(tag, i) })
		}
	}
	return names, owns
}

// checkBoot holds a streaming boot to the retaining path it replaces on a
// daemon: same snapshot bit for bit, same audit trail, the whole corpus's
// record count, and no tag outside the slice.
func checkBoot(t *testing.T, what string, res *Result, b *Boot, owns func(string) bool) {
	t.Helper()
	want, err := profilestore.BuildOwned(res.Analysis, owns)
	if err != nil {
		t.Fatal(err)
	}
	// Before the build: it consumes the aggregate.
	for _, tag := range b.Aggregate.TagNames() {
		if owns != nil && !owns(tag) {
			t.Fatalf("%s: aggregate holds %q, which the slice does not own", what, tag)
		}
	}
	got, err := profilestore.BuildAggregate(b.Aggregate, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameExport(t, what, want.Export(), got.Export())
	if b.Report != res.Clean.Report {
		t.Fatalf("%s: filter report %v, want %v", what, b.Report, res.Clean.Report)
	}
	if b.Aggregate.N() != res.Clean.Report.Kept || got.Records() != res.Clean.Report.Kept {
		t.Fatalf("%s: records %d (snapshot %d), want the whole corpus's %d", what, b.Aggregate.N(), got.Records(), res.Clean.Report.Kept)
	}
}

// readRecords is how many of the retaining path's kept records carry a
// tag of the slice: the videos whose view field a streaming boot of that
// slice reads.
func readRecords(res *Result, owns func(string) bool) int {
	if owns == nil {
		return len(res.Clean.Records)
	}
	n := 0
	for i := range res.Clean.Records {
		for _, tag := range res.Clean.Records[i].Tags {
			if owns(tag) {
				n++
				break
			}
		}
	}
	return n
}

// TestBootSyntheticMatchesRetainingPath: satellite tests (b) and (d) —
// BootSynthetic against FromSynthetic on the benchmark catalog and a
// small one, every slice — and with 1, 2 and 8 Ps under the generator's
// two stages, which must not show in a bit of either path.
func TestBootSyntheticMatchesRetainingPath(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testBootSyntheticMatchesRetainingPath(t)
		})
	}
}

func testBootSyntheticMatchesRetainingPath(t *testing.T) {
	sizes := []int{2000, 20000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	names, owns := slices(t)
	for _, videos := range sizes {
		res, err := FromSynthetic(videos, bootSeed, alexa.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		snap, err := profilestore.Build(res.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashExport(snap.Export()); got != exportHashes[videos] {
			t.Fatalf("%d videos: retaining path's export hashes to %#x, want the pinned %#x", videos, got, exportHashes[videos])
		}
		for i := range names {
			b, err := BootSynthetic(videos, bootSeed, alexa.DefaultConfig(), owns[i], false)
			if err != nil {
				t.Fatal(err)
			}
			if b.Served != nil {
				t.Fatalf("%d/%s: catalog kept unasked", videos, names[i])
			}
			if want := readRecords(res, owns[i]); b.Fields != want {
				t.Fatalf("%d/%s: the pass drew %d view fields, want the %d its slice reads", videos, names[i], b.Fields, want)
			}
			checkBoot(t, names[i], res, b, owns[i])
		}
		// The standalone node's form: same pass, the served catalog
		// collected from it — equal to the research catalog's served form,
		// which in turn says of every video what the video does.
		b, err := BootSynthetic(videos, bootSeed, alexa.DefaultConfig(), nil, true)
		if err != nil {
			t.Fatal(err)
		}
		checkBoot(t, "whole+catalog", res, b, nil)
		if b.Fields != len(res.Clean.Records) {
			t.Fatalf("%d videos: a node drew %d view fields, want the %d it reads", videos, b.Fields, len(res.Clean.Records))
		}
		cat, got := res.Catalog, b.Served
		if !reflect.DeepEqual(got, cat.Served()) {
			t.Fatalf("%d videos: served catalog collected from the streaming pass differs from the research catalog's", videos)
		}
		if got.N() != len(cat.Videos) {
			t.Fatalf("%d videos: served catalog holds %d videos", videos, got.N())
		}
		for i := range cat.Videos {
			v := &cat.Videos[i]
			tags := make([]string, 0, len(v.TagIDs))
			for _, id := range got.TagIDs[got.TagOff[i]:got.TagOff[i+1]] {
				tags = append(tags, got.TagNames[id])
			}
			if got.IDs[i] != v.ID || got.TotalViews[i] != v.TotalViews ||
				!reflect.DeepEqual(tags, v.TagNames(cat.Vocab)) {
				t.Fatalf("%d videos: served video %d differs from the catalog's", videos, i)
			}
		}
	}
}

// TestBootFileMatchesRetainingPath: satellite test (c) — the same
// equivalence through a JSONL file, plain and gzipped, plus the file
// reader's contract: blank lines skipped, a malformed line fails the boot.
func TestBootFileMatchesRetainingPath(t *testing.T) {
	src, err := FromSynthetic(2000, bootSeed, alexa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	records := src.Catalog.Records()
	names, owns := slices(t)
	dir := t.TempDir()
	for _, file := range []string{"crawl.jsonl", "crawl.jsonl.gz"} {
		path := filepath.Join(dir, file)
		if err := dataset.SaveFile(path, records); err != nil {
			t.Fatal(err)
		}
		res, err := FromFile(path, alexa.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if want := dataset.Filter(res.World, records).Report; res.Clean.Report != want {
			t.Fatalf("%s: FromFile report %v, dataset.Filter's %v", file, res.Clean.Report, want)
		}
		for i := range names {
			b, err := BootFile(path, alexa.DefaultConfig(), owns[i])
			if err != nil {
				t.Fatal(err)
			}
			checkBoot(t, file+"/"+names[i], res, b, owns[i])
		}
	}

	plain, err := os.ReadFile(filepath.Join(dir, "crawl.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(plain, []byte("\n"))
	blanks := filepath.Join(dir, "blanks.jsonl")
	spaced := append([]byte("\n  \n"), bytes.Join(lines, []byte("\n\t\n"))...)
	if err := os.WriteFile(blanks, spaced, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := BootFile(blanks, alexa.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("blank lines: %v", err)
	}
	if want := dataset.Filter(b.World, records).Report; b.Report != want {
		t.Fatalf("blank lines: report %v, want %v", b.Report, want)
	}

	broken := filepath.Join(dir, "broken.jsonl")
	torn := append(bytes.Join(lines[:100], nil), []byte("{\"video_id\": \"torn\n")...)
	torn = append(torn, bytes.Join(lines[100:], nil)...)
	if err := os.WriteFile(broken, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BootFile(broken, alexa.DefaultConfig(), nil); err == nil {
		t.Fatal("a malformed line did not fail the boot")
	}
	if _, err := BootFile(filepath.Join(dir, "nope.jsonl"), alexa.DefaultConfig(), nil); err == nil {
		t.Fatal("a missing file did not fail the boot")
	}
}
