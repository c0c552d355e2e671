package persist

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/bincodec"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
)

var (
	fixOnce sync.Once
	fixRes  *pipeline.Result
	fixErr  error
)

func fixture(t testing.TB) *pipeline.Result {
	fixOnce.Do(func() {
		fixRes, fixErr = pipeline.FromSynthetic(2000, 20110301, alexa.DefaultConfig())
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixRes
}

func buildSnap(t testing.TB) *profilestore.Snapshot {
	s, err := profilestore.Build(fixture(t).Analysis)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quietOpts(dir string) Options {
	return Options{Dir: dir, Logger: log.New(io.Discard, "", 0)}
}

// mustOpen opens a manager and runs the (possibly empty) replay that
// arms appending, collecting replayed records.
func mustOpen(t *testing.T, opts Options, fromGen uint64) (*Manager, []walRecord) {
	t.Helper()
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []walRecord
	if _, _, err := m.Replay(fromGen, func(ev []ingest.Event, up []string) error {
		recs = append(recs, walRecord{events: ev, uploads: up})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return m, recs
}

func event(video, tag string, country int, views float64, upload bool) ingest.Event {
	return ingest.Event{Video: video, Tags: []string{tag}, Country: geo.CountryID(country), Views: views, Upload: upload}
}

// TestSnapshotCodecRoundTrip pins the checkpoint codec: every persisted
// field survives bit-identically, and both flipped bytes and truncation
// are detected.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap := buildSnap(t)
	data := snap.Export()
	meta := CheckpointMeta{Gen: 42, Epoch: 7}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, meta, data); err != nil {
		t.Fatal(err)
	}
	gotMeta, got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta %+v != %+v", gotMeta, meta)
	}
	if got.Records != data.Records || len(got.Codes) != len(data.Codes) || len(got.Profiles) != len(data.Profiles) {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			got.Records, len(got.Codes), len(got.Profiles), data.Records, len(data.Codes), len(data.Profiles))
	}
	for i, c := range data.Codes {
		if got.Codes[i] != c {
			t.Fatalf("code %d: %q != %q", i, got.Codes[i], c)
		}
	}
	for i := range data.Prior {
		if got.Prior[i] != data.Prior[i] {
			t.Fatalf("prior %d not bit-identical", i)
		}
	}
	for i := range data.Profiles {
		if got.Profiles[i] != data.Profiles[i] {
			t.Fatalf("profile %d: %+v != %+v", i, got.Profiles[i], data.Profiles[i])
		}
		for c := range data.Vecs[i] {
			if got.Vecs[i][c] != data.Vecs[i][c] {
				t.Fatalf("vec[%d][%d] not bit-identical", i, c)
			}
		}
	}

	// Corruption: flip one payload byte — must fail the checksum.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(raw)/2] ^= 0x40
	if _, _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("ReadSnapshot accepted a corrupt checkpoint")
	}
	// Truncation: drop the tail.
	if _, _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("ReadSnapshot accepted a truncated checkpoint")
	}
	// Wrong magic.
	if _, _, err := ReadSnapshot(strings.NewReader("NOTACKPTxxxxxxxx")); err == nil {
		t.Fatal("ReadSnapshot accepted a foreign file")
	}
}

// faultWriter fails after limit bytes — the fault-injecting writer the
// crash-window tests use to model a disk filling up mid-write.
type faultWriter struct {
	n     int
	limit int
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		room := w.limit - w.n
		if room < 0 {
			room = 0
		}
		w.n = w.limit
		return room, fmt.Errorf("fault: disk full")
	}
	w.n += len(p)
	return len(p), nil
}

// TestWriteSnapshotSurfacesWriteErrors pins that a failing writer (disk
// full) aborts the encode with an error instead of producing a short,
// silently accepted file.
func TestWriteSnapshotSurfacesWriteErrors(t *testing.T) {
	snap := buildSnap(t)
	for _, limit := range []int{0, 4, 100, 10_000} {
		if err := WriteSnapshot(&faultWriter{limit: limit}, CheckpointMeta{}, snap.Export()); err == nil {
			t.Fatalf("WriteSnapshot succeeded over a writer that fails after %d bytes", limit)
		}
	}
}

// TestWALAppendReplay pins the journal round trip: records come back in
// order, with their generations filtering replay.
func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, quietOpts(dir), 0)
	if err := m.Append(0, []ingest.Event{event("v1", "alpha", 2, 10, true)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(0, nil, []string{"bare-upload"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(1, []ingest.Event{event("v2", "beta", 3, 5, false)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay everything.
	m2, recs := mustOpen(t, quietOpts(dir), 0)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].events[0].Video != "v1" || !recs[0].events[0].Upload || recs[0].events[0].Views != 10 {
		t.Fatalf("record 0 mangled: %+v", recs[0].events[0])
	}
	if len(recs[1].uploads) != 1 || recs[1].uploads[0] != "bare-upload" {
		t.Fatalf("record 1 mangled: %+v", recs[1])
	}
	if recs[2].events[0].Tags[0] != "beta" || recs[2].events[0].Country != 3 {
		t.Fatalf("record 2 mangled: %+v", recs[2].events[0])
	}
	_ = m2.Close()

	// Reopen with a checkpoint horizon: gen-0 records are covered.
	m3, recs3 := mustOpen(t, quietOpts(dir), 1)
	if len(recs3) != 1 || recs3[0].events[0].Video != "v2" {
		t.Fatalf("replay from gen 1 delivered %d records (%+v), want just v2", len(recs3), recs3)
	}
	_ = m3.Close()
}

// TestWALRotationAndPrune pins segment rotation by size and the
// checkpoint-driven prune: covered segments disappear, the active one
// stays.
func TestWALRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	opts := quietOpts(dir)
	opts.SegmentBytes = 256 // force rotation every couple of records
	m, _ := mustOpen(t, opts, 0)
	for i := 0; i < 20; i++ {
		if err := m.Append(uint64(i), []ingest.Event{event(fmt.Sprintf("v%d", i), "tag-with-some-length", 1, 1, false)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.WALSegments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.WALSegments)
	}

	snap := buildSnap(t)
	// Two checkpoints: pruning keys off the OLDEST retained one, so
	// cover everything twice to see segments actually go.
	if err := m.SaveCheckpoint(CheckpointMeta{Gen: 20, Epoch: 1}, snap.Export()); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveCheckpoint(CheckpointMeta{Gen: 21, Epoch: 2}, snap.Export()); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.WALSegments > 1 {
		t.Fatalf("prune left %d segments, want just the active one", st.WALSegments)
	}
	if st.Checkpoints != 2 {
		t.Fatalf("%d checkpoints retained, want 2", st.Checkpoints)
	}
	_ = m.Close()

	// After recovery nothing replays: every record is covered.
	m2, recs := mustOpen(t, quietOpts(dir), 21)
	if len(recs) != 0 {
		t.Fatalf("replayed %d covered records, want 0", len(recs))
	}
	_ = m2.Close()
}

// TestTornTailTruncated pins the crash-mid-append window: a partial
// final record is truncated away, everything before it replays, and the
// log accepts appends again afterwards.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, quietOpts(dir), 0)
	for i := 0; i < 3; i++ {
		if err := m.Append(uint64(i), []ingest.Event{event(fmt.Sprintf("v%d", i), "tag", 1, 1, false)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = m.Close()

	// Simulate the crash: chop bytes off the tail, mid-frame.
	seg := onlySegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	m2, recs := mustOpen(t, quietOpts(dir), 0)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(recs))
	}
	if st := m2.Stats(); !st.TornTailTruncated {
		t.Fatal("stats do not report the torn-tail truncation")
	}
	// The tail is clean again: appending and replaying still works.
	if err := m2.Append(9, []ingest.Event{event("v9", "tag", 1, 1, false)}, nil); err != nil {
		t.Fatal(err)
	}
	_ = m2.Close()
	m3, recs3 := mustOpen(t, quietOpts(dir), 0)
	if len(recs3) != 3 {
		t.Fatalf("replayed %d records after recovery append, want 3", len(recs3))
	}
	if recs3[2].events[0].Video != "v9" {
		t.Fatalf("post-recovery append lost: %+v", recs3[2])
	}
	_ = m3.Close()

	// CRC corruption (not just truncation) of the tail is torn too.
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m4, recs4 := mustOpen(t, quietOpts(dir), 0)
	if len(recs4) != 2 {
		t.Fatalf("replayed %d records after CRC-corrupt tail, want 2", len(recs4))
	}
	if st := m4.Stats(); !st.TornTailTruncated {
		t.Fatal("stats do not report the CRC truncation")
	}
	_ = m4.Close()
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

// TestCheckpointRenameWindow pins the kill-between-write-and-rename
// crash: the leftover .tmp is ignored and removed, and recovery serves
// the previous checkpoint plus the full journal.
func TestCheckpointRenameWindow(t *testing.T) {
	dir := t.TempDir()
	snap := buildSnap(t)
	m, _ := mustOpen(t, quietOpts(dir), 0)
	if err := m.SaveCheckpoint(CheckpointMeta{Gen: 1, Epoch: 1}, snap.Export()); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(1, []ingest.Event{event("v1", "tag", 1, 1, false)}, nil); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()

	// The "crash": a half-written checkpoint that never got renamed.
	tmp := filepath.Join(dir, "checkpoint-0000000000000007.ckpt.tmp")
	if err := os.WriteFile(tmp, []byte("VTCKPT01 partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(quietOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover .tmp survived Open")
	}
	loaded, meta, found, err := m2.LoadCheckpoint(fixture(t).Analysis.World)
	if err != nil || !found {
		t.Fatalf("LoadCheckpoint: found=%v err=%v", found, err)
	}
	if meta.Gen != 1 || loaded.NumTags() != snap.NumTags() {
		t.Fatalf("recovered wrong checkpoint: meta %+v, %d tags", meta, loaded.NumTags())
	}
	var n int
	if _, _, err := m2.Replay(meta.Gen, func(ev []ingest.Event, up []string) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1", n)
	}
	_ = m2.Close()
}

// TestCorruptNewestCheckpointFallsBack pins the fallback: when the
// newest checkpoint is corrupt, recovery loads the previous one, and
// the WAL records it needs are still present (prune keys off the oldest
// retained checkpoint).
func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	snap := buildSnap(t)
	m, _ := mustOpen(t, quietOpts(dir), 0)
	if err := m.Append(0, []ingest.Event{event("v0", "tag", 1, 1, false)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveCheckpoint(CheckpointMeta{Gen: 1, Epoch: 1}, snap.Export()); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(1, []ingest.Event{event("v1", "tag", 1, 1, false)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveCheckpoint(CheckpointMeta{Gen: 2, Epoch: 2}, snap.Export()); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()

	// Corrupt the newest checkpoint's interior.
	newest := filepath.Join(dir, "checkpoint-0000000000000002.ckpt")
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x55
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(quietOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, meta, found, err := m2.LoadCheckpoint(fixture(t).Analysis.World)
	if err != nil || !found {
		t.Fatalf("LoadCheckpoint: found=%v err=%v", found, err)
	}
	if meta.Gen != 1 {
		t.Fatalf("fell back to gen %d, want 1", meta.Gen)
	}
	// The gen-1 record the fallback needs must still replay.
	var vids []string
	if _, _, err := m2.Replay(meta.Gen, func(ev []ingest.Event, up []string) error {
		for i := range ev {
			vids = append(vids, ev[i].Video)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(vids) != 1 || vids[0] != "v1" {
		t.Fatalf("fallback replay got %v, want [v1]", vids)
	}
	_ = m2.Close()
}

// TestStaleSegmentsWithCheckpoint pins the "checkpoint with stale
// segments present" crash window: segments whose records the checkpoint
// covers are filtered from replay (no double-apply) even when a crash
// prevented pruning, and recovery lands on the last acked state.
func TestStaleSegmentsWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	snap := buildSnap(t)
	opts := quietOpts(dir)
	opts.SegmentBytes = 128 // every record its own segment
	m, _ := mustOpen(t, opts, 0)
	if err := m.Append(0, []ingest.Event{event("covered-a", "tag", 1, 1, false)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(1, []ingest.Event{event("covered-b", "tag", 1, 1, false)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(2, []ingest.Event{event("tail", "tag", 1, 1, false)}, nil); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()

	// A checkpoint covering gens < 2 appears, but the process dies
	// before pruning: write it via a second manager that never touches
	// the WAL files.
	mw, err := Open(quietOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.SaveCheckpoint(CheckpointMeta{Gen: 2, Epoch: 1}, snap.Export()); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(quietOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, meta, found, err := m2.LoadCheckpoint(fixture(t).Analysis.World)
	if err != nil || !found || meta.Gen != 2 {
		t.Fatalf("LoadCheckpoint: meta=%+v found=%v err=%v", meta, found, err)
	}
	var vids []string
	if _, _, err := m2.Replay(meta.Gen, func(ev []ingest.Event, up []string) error {
		for i := range ev {
			vids = append(vids, ev[i].Video)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(vids) != 1 || vids[0] != "tail" {
		t.Fatalf("replay with stale segments got %v, want [tail]", vids)
	}
	_ = m2.Close()
}

// TestRecoverToLastAckedEpoch drives the full accumulator+manager loop
// the daemon runs — journal, drain, checkpoint, more journal, crash —
// and asserts recovery reconstructs exactly the acked state.
func TestRecoverToLastAckedEpoch(t *testing.T) {
	dir := t.TempDir()
	res := fixture(t)
	nUS := int(res.Analysis.World.MustByCode("US"))
	nJP := int(res.Analysis.World.MustByCode("JP"))

	snap := buildSnap(t)
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := mustOpen(t, quietOpts(dir), 0)
	acc, err := ingest.NewAccumulator(store, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	acc.SetJournal(m)

	// Epoch 1: journaled, folded, checkpointed.
	if err := acc.Add([]ingest.Event{event("up-1", "zz-recover", nUS, 80, true)}); err != nil {
		t.Fatal(err)
	}
	deltas, newRecords, _, gen := acc.Drain()
	next, err := profilestore.Rebuild(store.Load(), deltas, newRecords)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Swap(next); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveCheckpoint(CheckpointMeta{Gen: gen, Epoch: 1}, store.Load().Export()); err != nil {
		t.Fatal(err)
	}

	// Epoch 2 in flight: journaled and acked, never folded — the crash
	// window the WAL exists for.
	if err := acc.Add([]ingest.Event{event("up-2", "zz-recover", nJP, 20, false)}); err != nil {
		t.Fatal(err)
	}
	_ = m.Close() // crash

	// Recovery.
	m2, err := Open(quietOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	recSnap, meta, found, err := m2.LoadCheckpoint(res.Analysis.World)
	if err != nil || !found {
		t.Fatalf("LoadCheckpoint: found=%v err=%v", found, err)
	}
	store2, err := profilestore.NewStore(recSnap)
	if err != nil {
		t.Fatal(err)
	}
	acc2, err := ingest.NewAccumulator(store2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	acc2.Restore(meta.Gen, meta.Epoch)
	maxGen, applied, err := m2.Replay(meta.Gen, acc2.Replay)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("replayed %d records, want 1 (the unfolded tail)", applied)
	}
	if maxGen >= meta.Gen {
		acc2.Restore(maxGen+1, meta.Epoch)
	}
	deltas2, newRecords2, _, _ := acc2.Drain()
	rec2, err := profilestore.Rebuild(store2.Load(), deltas2, newRecords2)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same events, never crashed.
	refStore, err := profilestore.NewStore(buildSnap(t))
	if err != nil {
		t.Fatal(err)
	}
	refAcc, err := ingest.NewAccumulator(refStore, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := refAcc.Add([]ingest.Event{
		event("up-1", "zz-recover", nUS, 80, true),
		event("up-2", "zz-recover", nJP, 20, false),
	}); err != nil {
		t.Fatal(err)
	}
	refDeltas, refRecords, _, _ := refAcc.Drain()
	ref, err := profilestore.Rebuild(refStore.Load(), refDeltas, refRecords)
	if err != nil {
		t.Fatal(err)
	}

	if rec2.Records() != ref.Records() {
		t.Fatalf("records %d != reference %d", rec2.Records(), ref.Records())
	}
	id, ok := rec2.Lookup("zz-recover")
	if !ok {
		t.Fatal("recovered snapshot lost the ingested tag")
	}
	refID, _ := ref.Lookup("zz-recover")
	// The recovery folded the two batches apart, the reference together:
	// the sums are exact, so the bits agree all the same.
	va, vb := rec2.Vec(id), ref.Vec(refID)
	for c := range va {
		if math.Float64bits(va[c]) != math.Float64bits(vb[c]) {
			t.Fatalf("recovered geography diverges at %d: %v vs %v", c, va[c], vb[c])
		}
	}
	if pa, pb := rec2.Export().Profiles[id], ref.Export().Profiles[refID]; pa != pb {
		t.Fatalf("recovered profile %+v != reference %+v", pa, pb)
	}
	_ = m2.Close()
}

// TestAppendBeforeReplayRefused pins the guard that keeps a process
// from appending past an unexamined (possibly torn) tail.
func TestAppendBeforeReplayRefused(t *testing.T) {
	m, err := Open(quietOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(0, []ingest.Event{event("v", "t", 0, 1, false)}, nil); err == nil {
		t.Fatal("Append before Replay succeeded")
	}
}

func BenchmarkSnapshotSave(b *testing.B) {
	snap := buildSnap(b)
	data := snap.Export()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteSnapshot(&buf, CheckpointMeta{Gen: 1}, data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkSnapshotLoad(b *testing.B) {
	snap := buildSnap(b)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, CheckpointMeta{Gen: 1}, snap.Export()); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadSnapshot(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	m, err := Open(Options{Dir: dir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := m.Replay(0, func([]ingest.Event, []string) error { return nil }); err != nil {
		b.Fatal(err)
	}
	events := []ingest.Event{
		{Video: "bench-video-id", Tags: []string{"music", "live", "tour-2011"}, Country: 3, Views: 12, Upload: true},
		{Video: "bench-video-id", Tags: []string{"music"}, Country: 7, Views: 4},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Append(uint64(i), events, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = m.Close()
}

// TestReadSnapshotCorruptCountsErrorNotOOM pins that a checkpoint whose
// counts are corrupt (huge nTags with no data behind it) fails with a
// decode error instead of attempting a gigantic allocation — recovery's
// fall-back-to-older-checkpoint depends on corrupt files erroring, not
// OOM-killing the daemon.
func TestReadSnapshotCorruptCountsErrorNotOOM(t *testing.T) {
	e := bincodec.Writer{B: bytes.Clone(ckptMagic)}
	e.U64(1)     // gen
	e.U64(1)     // epoch
	e.U64(10)    // records
	e.Uvarint(1) // one country
	e.Str("US")
	e.F64(1.0)             // prior
	e.Uvarint(200_000_000) // claimed tag count, no data behind it
	done := make(chan error, 1)
	go func() {
		_, _, err := ReadSnapshot(bytes.NewReader(e.B))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ReadSnapshot accepted a corrupt tag count")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ReadSnapshot hung (or allocated its way to a stall) on a corrupt tag count")
	}
}
