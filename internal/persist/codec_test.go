package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
)

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what decoding n bytes of arbitrary input may
// allocate: the decoders' fixed buffers, then a small multiple of the
// input (a slice header per one-byte string, grown by doubling).
func decodeAllocBound(n int) uint64 { return 256<<10 + 64*uint64(n) }

// truncatedCheckpoint is a checkpoint cut off after its profiles: nCodes
// empty country codes and their prior, nProfiles profiles of the fewest
// bytes one takes (20), and none of the nProfiles×nCodes vector entries
// the counts promise.
func truncatedCheckpoint(nCodes, nProfiles int) []byte {
	var buf bytes.Buffer
	buf.Write(ckptMagic)
	e := &enc{w: &buf}
	e.u64(1)  // gen
	e.u64(1)  // epoch
	e.u64(10) // records
	e.uvarint(uint64(nCodes))
	for i := 0; i < nCodes; i++ {
		e.str("")
	}
	for i := 0; i < nCodes; i++ {
		e.f64(0)
	}
	e.uvarint(uint64(nProfiles))
	for i := 0; i < nProfiles; i++ {
		e.str("")
		e.uvarint(0)
		e.f64(0)
		e.varint(0)
		e.varint(0)
		e.f64(0)
	}
	return buf.Bytes()
}

// frame wraps payload in a WAL frame header with a valid CRC.
func frame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestDecodeAllocatesWhatArrives: a corrupt checkpoint or WAL frame fails
// having allocated about what it holds, not what its counts claim — the
// checkpoint here once asked for nProfiles×nCodes×8 = 524 MB, the frame
// for 64 M events (≈4 GB), before either failed.
func TestDecodeAllocatesWhatArrives(t *testing.T) {
	t.Run("checkpoint", func(t *testing.T) {
		raw := truncatedCheckpoint(1<<16, 1000)
		var err error
		n := allocated(func() { _, _, err = ReadSnapshot(bytes.NewReader(raw)) })
		if err == nil {
			t.Fatal("ReadSnapshot accepted a truncated checkpoint")
		}
		if n > 8<<20 {
			t.Errorf("ReadSnapshot of a %d KB truncated checkpoint allocated %.1f MB, limit 8 MB", len(raw)>>10, float64(n)/(1<<20))
		}
	})
	t.Run("wal-frame", func(t *testing.T) {
		var payload bytes.Buffer
		e := &enc{w: &payload}
		e.u64(1)           // gen
		e.uvarint(1 << 26) // events claimed: the frame ends here, 20 bytes
		raw := frame(payload.Bytes())
		var err error
		n := allocated(func() { _, _, err = readRecord(bufio.NewReader(bytes.NewReader(raw))) })
		if err == nil || err == errTorn {
			t.Fatalf("readRecord of a CRC-valid frame claiming 64 M events: err %v, want a decode error", err)
		}
		if n > 1<<20 {
			t.Errorf("readRecord of a %d-byte frame allocated %.1f MB, limit 1 MB", len(raw), float64(n)/(1<<20))
		}
	})
	t.Run("torn-header", func(t *testing.T) {
		// A header claiming maxFrameLen with four bytes behind it.
		raw := []byte{0, 0, 0, 4, 0, 0, 0, 0, 1, 2, 3, 4}
		var err error
		n := allocated(func() { _, _, err = readRecord(bufio.NewReader(bytes.NewReader(raw))) })
		if err != errTorn {
			t.Fatalf("readRecord of a torn frame: err %v, want errTorn", err)
		}
		if n > 1<<20 {
			t.Errorf("readRecord of a torn %d-byte frame allocated %.1f MB, limit 1 MB", len(raw), float64(n)/(1<<20))
		}
	})
}

// testSnapshotData is a small snapshot: three countries, two profiles.
func testSnapshotData() profilestore.SnapshotData {
	return profilestore.SnapshotData{
		Records: 7,
		Codes:   []string{"BR", "US", "JP"},
		Prior:   []float64{0.2, 0.5, 0.3},
		Profiles: []profilestore.Profile{
			{ID: 0, Name: "favela", Videos: 3, TotalViews: 1200, Spread: 1, TopCountry: 0, TopShare: 0.9},
			{ID: 1, Name: "pop", Videos: 5, TotalViews: 9e6, Spread: 3, TopCountry: 1, TopShare: 0.4},
		},
		Vecs: [][]float64{{0.9, 0.05, 0.05}, {0.3, 0.4, 0.3}},
	}
}

func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, CheckpointMeta{Gen: 3, Epoch: 2}, testSnapshotData()); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add(bytes.Clone(buf.Bytes()[:buf.Len()/2]))
	buf.Reset()
	if err := WriteSnapshot(&buf, CheckpointMeta{}, profilestore.SnapshotData{}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(truncatedCheckpoint(64, 8))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var (
			meta CheckpointMeta
			data profilestore.SnapshotData
			err  error
		)
		if n := allocated(func() { meta, data, err = ReadSnapshot(bytes.NewReader(raw)) }); n > decodeAllocBound(len(raw)) {
			t.Fatalf("ReadSnapshot of %d bytes allocated %d", len(raw), n)
		}
		if err != nil {
			return
		}
		// What decodes re-encodes to bytes that decode to the same bytes.
		var once, twice bytes.Buffer
		if err := WriteSnapshot(&once, meta, data); err != nil {
			t.Fatalf("re-encoding a decoded checkpoint: %v", err)
		}
		meta2, data2, err := ReadSnapshot(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded checkpoint: %v", err)
		}
		if err := WriteSnapshot(&twice, meta2, data2); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("checkpoint does not round-trip (err %v)", err)
		}
	})
}

func FuzzReadRecord(f *testing.F) {
	var buf bytes.Buffer
	for _, rec := range []walRecord{
		{gen: 1, events: []ingest.Event{event("v1", "favela", 3, 12, true)}},
		{gen: 9, events: []ingest.Event{{Video: "v2", Tags: []string{"a", "b", ""}, Views: 0.5}}, uploads: []string{"v2", "v3"}},
		{gen: 2},
	} {
		if err := encodeRecord(&buf, rec.gen, rec.events, rec.uploads); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()[8:]), false) // the payload, framed by the target
		f.Add(bytes.Clone(buf.Bytes()), true)      // the frame as it lies on disk
	}
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0}, true) // a header claiming 64 MB
	f.Fuzz(func(t *testing.T, raw []byte, asIs bool) {
		if !asIs {
			raw = frame(raw)
		}
		var (
			rec walRecord
			err error
		)
		if n := allocated(func() { rec, _, err = readRecord(bufio.NewReader(bytes.NewReader(raw))) }); n > decodeAllocBound(len(raw)) {
			t.Fatalf("readRecord of %d bytes allocated %d", len(raw), n)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := encodeRecord(&once, rec.gen, rec.events, rec.uploads); err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		rec2, size, err := readRecord(bufio.NewReader(bytes.NewReader(once.Bytes())))
		if err != nil || size != int64(once.Len()) {
			t.Fatalf("decoding a re-encoded record: size %d of %d, err %v", size, once.Len(), err)
		}
		if err := encodeRecord(&twice, rec2.gen, rec2.events, rec2.uploads); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("record does not round-trip (err %v)", err)
		}
	})
}
