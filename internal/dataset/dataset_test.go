package dataset

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"viewstags/internal/geo"
)

func validRecord() Record {
	return Record{
		VideoID:    "abc12345678",
		Title:      "test video",
		TotalViews: 1000,
		Tags:       []string{"pop", "music"},
		PopCodes:   []string{"US", "BR"},
		PopValues:  []int{61, 30},
	}
}

func TestPopVectorDensify(t *testing.T) {
	w := geo.DefaultWorld()
	r := validRecord()
	pop, err := r.PopVector(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != w.N() {
		t.Fatalf("vector length %d", len(pop))
	}
	us := w.MustByCode("US")
	br := w.MustByCode("BR")
	if pop[us] != 61 || pop[br] != 30 {
		t.Fatalf("pop[US]=%d pop[BR]=%d", pop[us], pop[br])
	}
	fr := w.MustByCode("FR")
	if pop[fr] != 0 {
		t.Fatalf("unlisted country got %d", pop[fr])
	}
}

// popVectorFaults is every way a record's popularity map is refused: the
// sentinel a printing caller matches, and the detail its error carries.
var popVectorFaults = []struct {
	name   string
	mutate func(*Record)
	want   error
	detail string
}{
	{"missing", func(r *Record) { r.PopCodes, r.PopValues = nil, nil }, ErrNoPopVector, "abc12345678"},
	{"length mismatch", func(r *Record) { r.PopValues = r.PopValues[:1] }, ErrBadPopVector, "2 codes, 1 values"},
	{"unknown country", func(r *Record) { r.PopCodes = []string{"US", "QQ"} }, ErrBadPopVector, `unknown country "QQ"`},
	{"out of range", func(r *Record) { r.PopValues = []int{61, 99} }, ErrBadPopVector, "intensity 99"},
	{"all zero", func(r *Record) { r.PopValues = []int{0, 0} }, ErrBadPopVector, "all-zero map"},
}

func TestPopVectorErrors(t *testing.T) {
	w := geo.DefaultWorld()
	for _, c := range popVectorFaults {
		t.Run(c.name, func(t *testing.T) {
			r := validRecord()
			c.mutate(&r)
			_, err := r.PopVector(w)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if !strings.Contains(err.Error(), "video abc12345678") || !strings.Contains(err.Error(), c.detail) {
				t.Fatalf("err = %q, want it to name the video and %q", err, c.detail)
			}
		})
	}
}

// TestAdmitAllocatesNothing: the filter counts a dropped record in the
// right bucket without formatting the error nobody reads, and densifies
// an admitted one into the scratch it was lent.
func TestAdmitAllocatesNothing(t *testing.T) {
	w := geo.DefaultWorld()
	scratch := make([]int, w.N())
	for _, c := range popVectorFaults {
		r := validRecord()
		c.mutate(&r)
		var fr FilterReport
		if n := testing.AllocsPerRun(100, func() { fr.Admit(w, &r, scratch) }); n != 0 {
			t.Errorf("%s: Admit on a dropped record: %v allocs, want 0", c.name, n)
		}
		bucket := fr.BadPopVector
		if c.want == ErrNoPopVector {
			bucket = fr.NoPopVector
		}
		if bucket != fr.Crawled || fr.Kept != 0 {
			t.Errorf("%s: report %+v, want every record in the %v bucket", c.name, fr, c.want)
		}
	}
	r := validRecord()
	var fr FilterReport
	if n := testing.AllocsPerRun(100, func() { fr.Admit(w, &r, scratch) }); n != 0 || fr.Kept != fr.Crawled {
		t.Errorf("Admit on a kept record with scratch lent: %v allocs, report %+v", n, fr)
	}
}

func TestFilterBucketsReasons(t *testing.T) {
	w := geo.DefaultWorld()
	good := validRecord()
	untagged := validRecord()
	untagged.Tags = nil
	noPop := validRecord()
	noPop.PopCodes, noPop.PopValues = nil, nil
	badPop := validRecord()
	badPop.PopValues = []int{0, 0}
	malformed := validRecord()
	malformed.VideoID = ""

	c := Filter(w, []Record{good, untagged, noPop, badPop, malformed})
	r := c.Report
	if r.Crawled != 5 || r.Kept != 1 || r.Untagged != 1 || r.NoPopVector != 1 || r.BadPopVector != 1 || r.Malformed != 1 {
		t.Fatalf("report = %+v", r)
	}
	if len(c.Records) != 1 || len(c.Pop) != 1 {
		t.Fatalf("kept %d records, %d vectors", len(c.Records), len(c.Pop))
	}
	if got := r.DropRate(); got != 0.8 {
		t.Fatalf("drop rate = %v", got)
	}
}

func TestFilterEmptyInput(t *testing.T) {
	c := Filter(geo.DefaultWorld(), nil)
	if c.Report.Crawled != 0 || c.Report.Kept != 0 || c.Report.DropRate() != 0 {
		t.Fatalf("empty filter report = %+v", c.Report)
	}
}

func TestUniqueTagsAndViews(t *testing.T) {
	w := geo.DefaultWorld()
	a := validRecord()
	a.Tags = []string{"pop", "music"}
	b := validRecord()
	b.VideoID = "bbbbbbbbbbb"
	b.Tags = []string{"pop", "favela"}
	b.TotalViews = 500
	c := Filter(w, []Record{a, b})
	tags, views := c.UniqueTags()
	if tags != 3 {
		t.Fatalf("unique tags = %d", tags)
	}
	if views != 1500 {
		t.Fatalf("views = %d", views)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{validRecord(), func() Record {
		r := validRecord()
		r.VideoID = "xyz98765432"
		r.Tags = []string{"samba"}
		return r
	}()}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].VideoID != "xyz98765432" || got[0].PopValues[0] != 61 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestReadJSONLSkipsBlanksRejectsGarbage(t *testing.T) {
	got, err := readJSONL(strings.NewReader("\n\n" + `{"video_id":"a","total_views":1,"tags":["x"]}` + "\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("blank-line handling: %v %v", got, err)
	}
	if _, err := readJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{validRecord()}
	for _, name := range []string{"d.jsonl", "d.jsonl.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, recs); err != nil {
			t.Fatalf("save %s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if len(got) != 1 || got[0].VideoID != recs[0].VideoID {
			t.Fatalf("%s round trip = %+v", name, got)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// readJSONL collects every record of a JSONL stream through scanJSONL.
func readJSONL(r io.Reader) ([]Record, error) {
	return collect(func(fn func(*Record) error) error { return scanJSONL(r, fn) })
}
