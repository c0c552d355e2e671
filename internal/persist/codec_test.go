package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"viewstags/internal/bincodec"
	"viewstags/internal/geo"
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
	e := bincodec.Writer{B: bytes.Clone(ckptMagic)}
	e.U64(1)  // gen
	e.U64(1)  // epoch
	e.U64(10) // records
	e.Uvarint(uint64(nCodes))
	for i := 0; i < nCodes; i++ {
		e.Str("")
	}
	for i := 0; i < nCodes; i++ {
		e.F64(0)
	}
	e.Uvarint(uint64(nProfiles))
	for i := 0; i < nProfiles; i++ {
		e.Str("")
		e.Uvarint(0)
		e.F64(0)
		e.Varint(0)
		e.Varint(0)
		e.F64(0)
	}
	return e.B
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
		var e bincodec.Writer
		e.U64(1)           // gen
		e.Uvarint(1 << 26) // events claimed: the frame ends here, 20 bytes
		raw := frame(e.B)
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

// testSnapshotData is a small snapshot: three countries, two profiles,
// each vector its tag's per-country view sums.
func testSnapshotData() profilestore.SnapshotData {
	return profilestore.SnapshotData{
		Records: 7,
		Codes:   []string{"BR", "US", "JP"},
		Prior:   []float64{0.2, 0.5, 0.3},
		Profiles: []profilestore.Profile{
			{ID: 0, Name: "favela", Videos: 3, TotalViews: 1200, Spread: 1, TopCountry: 0, TopShare: 0.9},
			{ID: 1, Name: "pop", Videos: 5, TotalViews: 9e6, Spread: 2, TopCountry: 1, TopShare: 0.4},
		},
		Vecs: [][]float64{{1080, 60, 60}, {2.7e6, 3.6e6, 2.7e6}},
	}
}

// TestCheckpointGoldenBytes pins the checkpoint layout byte for byte: a
// durable shard restarted on a new binary reads the file an old one
// wrote, so a layout change must fail here, not at recovery.
func TestCheckpointGoldenBytes(t *testing.T) {
	want := []byte{
		'V', 'T', 'C', 'K', 'P', 'T', '0', '2', // magic
		3, 0, 0, 0, 0, 0, 0, 0, // gen u64
		2, 0, 0, 0, 0, 0, 0, 0, // epoch u64
		7, 0, 0, 0, 0, 0, 0, 0, // records u64
		3,           // nCodes uvarint
		2, 'B', 'R', // codes
		2, 'U', 'S',
		2, 'J', 'P',
		0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xc9, 0x3f, // prior 0.2
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // prior 0.5
		0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xd3, 0x3f, // prior 0.3
		2,                               // nTags uvarint
		6, 'f', 'a', 'v', 'e', 'l', 'a', // profile 0: name
		3,                                              // videos uvarint
		0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x92, 0x40, // total views 1200
		2,                                              // spread varint 1
		0,                                              // top country varint 0
		0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f, // top share 0.9
		3, 'p', 'o', 'p', // profile 1: name
		5,                                              // videos
		0x00, 0x00, 0x00, 0x00, 0x88, 0x2a, 0x61, 0x41, // total views 9e6
		4,                                              // spread varint 2
		2,                                              // top country varint 1
		0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xd9, 0x3f, // top share 0.4
		0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x90, 0x40, // vec 0: 1080
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4e, 0x40, //        60
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4e, 0x40, //        60
		0x00, 0x00, 0x00, 0x00, 0x70, 0x99, 0x44, 0x41, // vec 1: 2.7e6
		0x00, 0x00, 0x00, 0x00, 0x40, 0x77, 0x4b, 0x41, //        3.6e6
		0x00, 0x00, 0x00, 0x00, 0x70, 0x99, 0x44, 0x41, //        2.7e6
		0x95, 0xc9, 0xb3, 0x49, // crc32 of everything after the magic
	}
	if sum := crc32.ChecksumIEEE(want[8 : len(want)-4]); binary.LittleEndian.Uint32(want[len(want)-4:]) != sum {
		t.Fatalf("golden trailer is not the payload's CRC %08x", sum)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, CheckpointMeta{Gen: 3, Epoch: 2}, testSnapshotData()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("checkpoint bytes mismatch:\n got % x\nwant % x", buf.Bytes(), want)
	}
	meta, data, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil || meta != (CheckpointMeta{Gen: 3, Epoch: 2}) || !reflect.DeepEqual(data, testSnapshotData()) {
		t.Fatalf("golden checkpoint decoded as %+v %+v (%v)", meta, data, err)
	}
}

// v1Checkpoint is testSnapshotData as a VTCKPT01 checkpoint held it, each
// vector normalized by its TotalViews: the bytes TestCheckpointGoldenBytes
// pinned before checkpoints carried sums.
var v1Checkpoint = []byte{
	'V', 'T', 'C', 'K', 'P', 'T', '0', '1', // magic
	3, 0, 0, 0, 0, 0, 0, 0, // gen u64
	2, 0, 0, 0, 0, 0, 0, 0, // epoch u64
	7, 0, 0, 0, 0, 0, 0, 0, // records u64
	3,           // nCodes uvarint
	2, 'B', 'R', // codes
	2, 'U', 'S',
	2, 'J', 'P',
	0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xc9, 0x3f, // prior 0.2
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // prior 0.5
	0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xd3, 0x3f, // prior 0.3
	2,                               // nTags uvarint
	6, 'f', 'a', 'v', 'e', 'l', 'a', // profile 0: name
	3,                                              // videos uvarint
	0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x92, 0x40, // total views 1200
	2,                                              // spread varint 1
	0,                                              // top country varint 0
	0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f, // top share 0.9
	3, 'p', 'o', 'p', // profile 1: name
	5,                                              // videos
	0x00, 0x00, 0x00, 0x00, 0x88, 0x2a, 0x61, 0x41, // total views 9e6
	6,                                              // spread varint 3
	2,                                              // top country varint 1
	0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xd9, 0x3f, // top share 0.4
	0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f, // vec 0: 0.9
	0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f, //        0.05
	0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f, //        0.05
	0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xd3, 0x3f, // vec 1: 0.3
	0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xd9, 0x3f, //        0.4
	0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xd3, 0x3f, //        0.3
	0x34, 0x19, 0x66, 0x1d, // crc32 of everything after the magic
}

// TestCheckpointV1ReadAsSums: a VTCKPT01 checkpoint decodes to sums —
// each share times its tag's TotalViews, rounded to the view unit, the
// profile derived again — and a durable node recovers from it, serves
// the sums, and writes its next checkpoint as VTCKPT02.
func TestCheckpointV1ReadAsSums(t *testing.T) {
	meta, data, err := ReadSnapshot(bytes.NewReader(v1Checkpoint))
	if err != nil || meta != (CheckpointMeta{Gen: 3, Epoch: 2}) || !reflect.DeepEqual(data, testSnapshotData()) {
		t.Fatalf("VTCKPT01 checkpoint decoded as %+v %+v (%v), want the sums %+v", meta, data, err, testSnapshotData())
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", 3)), v1Checkpoint, 0o644); err != nil {
		t.Fatal(err)
	}
	var countries []geo.Country
	for _, code := range []string{"BR", "US", "JP"} {
		countries = append(countries, geo.Country{Code: code, Name: code, PopulationM: 1, NetUsersM: 1})
	}
	world, err := geo.NewWorld(countries)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := mustOpen(t, quietOpts(dir), 0)
	snap, meta, found, err := m.LoadCheckpoint(world)
	if err != nil || !found || meta.Gen != 3 {
		t.Fatalf("LoadCheckpoint of a VTCKPT01 file: found=%v meta=%+v err=%v", found, meta, err)
	}
	want := testSnapshotData()
	if got := snap.Export(); !reflect.DeepEqual(got.Profiles, want.Profiles) || !reflect.DeepEqual(got.Vecs, want.Vecs) {
		t.Fatalf("recovered %+v %v, want %+v %v", got.Profiles, got.Vecs, want.Profiles, want.Vecs)
	}
	if err := m.SaveCheckpoint(CheckpointMeta{Gen: 4, Epoch: 3}, snap.Export()); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()
	raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", 4)))
	if err != nil {
		t.Fatal(err)
	}
	var wantRaw bytes.Buffer
	if err := WriteSnapshot(&wantRaw, CheckpointMeta{Gen: 4, Epoch: 3}, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("VTCKPT02")) || !bytes.Equal(raw, wantRaw.Bytes()) {
		t.Fatalf("the next checkpoint is not the sums as VTCKPT02:\n got % x\nwant % x", raw, wantRaw.Bytes())
	}
}

// TestWALRecordGoldenBytes pins one journal frame byte for byte: two
// events, one of them an upload, a two-byte country varint, and two
// upload announcements.
func TestWALRecordGoldenBytes(t *testing.T) {
	events := []ingest.Event{
		{Video: "v1", Tags: []string{"favela", "samba"}, Country: 3, Views: 12, Upload: true},
		{Video: "v2", Tags: []string{"pop"}, Country: 200, Views: 0.5},
	}
	uploads := []string{"v1", "v3"}
	want := []byte{
		0x3e, 0, 0, 0, // payload length u32: 62
		0x3a, 0x89, 0x59, 0x72, // crc32(payload) u32
		9, 0, 0, 0, 0, 0, 0, 0, // gen u64
		2,           // nEvents uvarint
		2, 'v', '1', // event 0: video
		2,                               // nTags
		6, 'f', 'a', 'v', 'e', 'l', 'a', // tags
		5, 's', 'a', 'm', 'b', 'a',
		3,                                              // country uvarint
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x40, // views 12
		1,           // upload
		2, 'v', '2', // event 1: video
		1,                // nTags
		3, 'p', 'o', 'p', // tag
		0xc8, 0x01, // country uvarint 200
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // views 0.5
		0,           // no upload
		2,           // nUploads uvarint
		2, 'v', '1', // uploads
		2, 'v', '3',
	}
	if sum := crc32.ChecksumIEEE(want[8:]); binary.LittleEndian.Uint32(want[4:8]) != sum || int(want[0]) != len(want)-8 {
		t.Fatalf("golden header is not the payload's length and CRC %08x", sum)
	}
	var buf bytes.Buffer
	if err := encodeRecord(&buf, 9, events, uploads); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WAL frame bytes mismatch:\n got % x\nwant % x", buf.Bytes(), want)
	}
	rec, size, err := readRecord(bufio.NewReader(bytes.NewReader(want)))
	if err != nil || size != int64(len(want)) || rec.gen != 9 || len(rec.events) != 2 || rec.events[1].Country != 200 ||
		!rec.events[0].Upload || rec.events[0].Tags[1] != "samba" || len(rec.uploads) != 2 || rec.uploads[1] != "v3" {
		t.Fatalf("golden frame decoded as %+v, size %d (%v)", rec, size, err)
	}
}

// TestDiskDecodersRefuseNonCanonicalCounts: a count spelled with more
// bytes than its value needs is no encoder's output, so the disk decoders
// refuse it as the wire does, even inside a valid CRC.
func TestDiskDecodersRefuseNonCanonicalCounts(t *testing.T) {
	t.Run("wal-event-count", func(t *testing.T) {
		// gen 1, events 0x80 0x00 (zero in two bytes), no uploads.
		raw := frame([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x00, 0})
		if _, _, err := readRecord(bufio.NewReader(bytes.NewReader(raw))); err == nil || err == errTorn {
			t.Fatalf("readRecord of a frame whose event count is 0x80 0x00: err %v, want a decode error", err)
		}
	})
	t.Run("checkpoint-country-count", func(t *testing.T) {
		// The three-country checkpoint with its country count spelled
		// 0x83 0x00, and a CRC that covers the new spelling.
		var good bytes.Buffer
		if err := WriteSnapshot(&good, CheckpointMeta{Gen: 3, Epoch: 2}, testSnapshotData()); err != nil {
			t.Fatal(err)
		}
		at := len(ckptMagic) + 3*8
		if good.Bytes()[at] != 3 {
			t.Fatalf("country count byte %#x, want 3", good.Bytes()[at])
		}
		raw := append(append(bytes.Clone(good.Bytes()[:at]), 0x83, 0x00), good.Bytes()[at+1:good.Len()-4]...)
		raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw[len(ckptMagic):]))
		if _, _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil {
			t.Fatal("ReadSnapshot accepted a country count spelled 0x83 0x00")
		}
	})
}

func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, CheckpointMeta{Gen: 3, Epoch: 2}, testSnapshotData()); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add(bytes.Clone(buf.Bytes()[:buf.Len()/2]))
	f.Add(bytes.Clone(v1Checkpoint))
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
