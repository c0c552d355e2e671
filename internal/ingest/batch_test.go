package ingest

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"viewstags/internal/bincodec"
)

// TestReadBatchRefusals: counts past their bound or the bytes left, a
// truncated body, a non-canonical count and an upload flag other than 0
// or 1 are refused.
func TestReadBatchRefusals(t *testing.T) {
	var w bincodec.Writer
	AppendBatch(&w, []Event{{Video: "v", Tags: []string{"t"}, Country: 1, Views: 2, Upload: true}}, []string{"u"})
	good := w.B
	flag := bytes.Clone(good)
	flag[len(flag)-4] = 2 // the upload flag, before the one upload "u"
	cases := map[string][]byte{
		"events past max":     {3},
		"events past budget":  {2, 0},
		"uploads past max":    {0, 3, 1, 'a', 1, 'b', 1, 'c'},
		"non-canonical count": append([]byte{0x81, 0x00}, good[1:]...),
		"upload flag 2":       flag,
	}
	for n := 0; n < len(good); n++ {
		cases[fmt.Sprintf("truncated to %d bytes", n)] = good[:n]
	}
	for name, in := range cases {
		r := bincodec.NewReader(in)
		if ReadBatch(&r, 2); r.End() == nil {
			t.Errorf("%s: % x decoded", name, in)
		}
	}
}

// TestReadBatchRefusesBeforeAllocating: an event count past the bound is
// refused before the events are allocated — what the refusal costs does
// not grow with the count it read.
func TestReadBatchRefusesBeforeAllocating(t *testing.T) {
	const max = 1 << 10
	var w bincodec.Writer
	w.Uvarint(max + 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := bincodec.NewReader(w.B)
	ReadBatch(&r, max)
	runtime.ReadMemStats(&after)
	if r.Err() == nil {
		t.Fatal("count past the bound decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<10 {
		t.Fatalf("refusing a count of %d allocated %d bytes", max+1, n)
	}
}
