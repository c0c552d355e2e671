package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"viewstags/internal/bincodec"
	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
)

// On-disk formats. Both files are little-endian and CRC-32 (IEEE)
// checksummed; the magic's trailing digits are the format version, so a
// future layout change is a new magic, not a silent misparse.
//
// Checkpoint file:
//
//	"VTCKPT02" | payload | crc32(payload)
//
// where payload is the snapshot codec below (generation, epoch, record
// count, country table, prior, profiles, dense vector table), each
// vector a tag's per-country view sums. A VTCKPT01 file, the same layout
// with normalized vectors, is read once (profilestore.SharesToSums).
//
// WAL segment file:
//
//	"VTWAL001" | frame*
//
// where each frame is
//
//	u32 len | u32 crc32(payload) | payload
//
// and payload is one journaled ingest batch: its generation (u64), then
// the batch body ingest.AppendBatch writes (events, upload
// announcements). A crash mid-append leaves a torn final frame;
// readRecord reports it as errTorn and recovery truncates it away.
var (
	ckptMagic       = []byte("VTCKPT02")
	ckptSharesMagic = []byte("VTCKPT01")
	walMagic        = []byte("VTWAL001")
)

// Decode-time sanity bounds: a corrupt length must produce an error,
// not an allocation the size of the corruption. Below them the reader's
// rules (internal/bincodec) hold what a decode allocates to a small
// multiple of what its input held.
const (
	maxStrLen    = 1 << 20
	maxCountries = 1 << 16
	maxTags      = 1 << 28
	maxFrameLen  = 64 << 20

	// ckptChunk is how much of a checkpoint WriteSnapshot encodes before
	// it hands the bytes to its writer.
	ckptChunk = 4 << 10
)

// errTorn marks a partially written (or CRC-corrupt) frame at a WAL
// segment tail.
var errTorn = fmt.Errorf("persist: torn record")

// WriteSnapshot encodes a checkpoint: magic, versioned payload
// (generation, epoch and the exported snapshot), trailing CRC. It hands
// its writer a few kilobytes at a time; the writer should be a buffered
// file. WriteSnapshot does not fsync.
func WriteSnapshot(w io.Writer, meta CheckpointMeta, data profilestore.SnapshotData) error {
	if len(data.Vecs) != len(data.Profiles) {
		return fmt.Errorf("persist: %d vectors for %d profiles", len(data.Vecs), len(data.Profiles))
	}
	for _, vec := range data.Vecs {
		if len(vec) != len(data.Codes) {
			return fmt.Errorf("persist: vector has %d entries for %d countries", len(vec), len(data.Codes))
		}
	}
	if _, err := w.Write(ckptMagic); err != nil {
		return err
	}
	e := bincodec.Writer{B: make([]byte, 0, 2*ckptChunk)}
	var sum uint32
	var err error
	// flush hands e's bytes to w once there are at least at of them;
	// after a write error it only drops them.
	flush := func(at int) {
		if len(e.B) < at {
			return
		}
		if err == nil {
			sum = crc32.Update(sum, crc32.IEEETable, e.B)
			_, err = w.Write(e.B)
		}
		e.B = e.B[:0]
	}
	e.U64(meta.Gen)
	e.U64(meta.Epoch)
	e.U64(uint64(data.Records))
	e.Uvarint(uint64(len(data.Codes)))
	for _, c := range data.Codes {
		e.Str(c)
		flush(ckptChunk)
	}
	e.F64s(data.Prior)
	e.Uvarint(uint64(len(data.Profiles)))
	for i := range data.Profiles {
		p := &data.Profiles[i]
		e.Str(p.Name)
		e.Uvarint(uint64(p.Videos))
		e.F64(p.TotalViews)
		e.Varint(int64(p.Spread))
		e.Varint(int64(p.TopCountry))
		e.F64(p.TopShare)
		flush(ckptChunk)
	}
	for _, vec := range data.Vecs {
		e.F64s(vec)
		flush(ckptChunk)
	}
	e.U32(crc32.Update(sum, crc32.IEEETable, e.B))
	flush(0)
	return err
}

// ReadSnapshot decodes a checkpoint written by WriteSnapshot (or a
// VTCKPT01 one, to sums), verifying magic and checksum. The returned data
// is freshly allocated (vectors share a few slab chunks), ready for
// profilestore.FromData.
func ReadSnapshot(src io.Reader) (CheckpointMeta, profilestore.SnapshotData, error) {
	var meta CheckpointMeta
	var data profilestore.SnapshotData
	var magic [8]byte
	if _, err := io.ReadFull(src, magic[:]); err != nil {
		return meta, data, fmt.Errorf("persist: checkpoint header: %w", err)
	}
	shares := bytes.Equal(magic[:], ckptSharesMagic)
	if !shares && !bytes.Equal(magic[:], ckptMagic) {
		return meta, data, fmt.Errorf("persist: not a checkpoint file (magic %q)", magic)
	}
	r := bincodec.NewSourceReader(src)
	meta.Gen = r.U64()
	meta.Epoch = r.U64()
	data.Records = int(r.U64())
	// The counts are claims the bytes have not proved: elements are
	// appended as they arrive, so a corrupt count fails at the end of the
	// file (recovery falls back to an older checkpoint), not in a make
	// the size of the corruption before the CRC is ever checked.
	nCodes := r.Count("country", maxCountries, 0)
	for len(data.Codes) < nCodes && r.Err() == nil {
		data.Codes = bincodec.AppendGrown(data.Codes, r.Str(maxStrLen))
	}
	for len(data.Prior) < nCodes && r.Err() == nil {
		data.Prior = bincodec.AppendGrown(data.Prior, r.F64())
	}
	nTags := r.Count("tag", maxTags, 0)
	for i := 0; i < nTags && r.Err() == nil; i++ {
		p := profilestore.Profile{ID: int32(i)}
		p.Name = r.Str(maxStrLen)
		p.Videos = int(r.Uvarint())
		p.TotalViews = r.F64()
		p.Spread = dist.Spread(r.Varint())
		p.TopCountry = geo.CountryID(r.Varint())
		p.TopShare = r.F64()
		data.Profiles = append(data.Profiles, p)
	}
	// nTags profiles have arrived, and the prior proved one vector's size.
	data.Vecs = r.F64Rows(nTags, nCodes)
	if err := r.Err(); err != nil {
		return meta, data, fmt.Errorf("persist: checkpoint decode: %w", err)
	}
	sum := r.Sum()
	if stored := r.U32(); r.Err() != nil {
		return meta, data, fmt.Errorf("persist: checkpoint checksum missing: %w", r.Err())
	} else if stored != sum {
		return meta, data, fmt.Errorf("persist: checkpoint checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	if shares {
		profilestore.SharesToSums(data)
	}
	return meta, data, nil
}

// encodeRecord serializes one journaled ingest batch into buf
// (resetting it first) as a CRC-framed record ready to append.
func encodeRecord(buf *bytes.Buffer, gen uint64, events []ingest.Event, uploads []string) error {
	buf.Reset()
	// The frame header is filled in once the payload is written.
	e := bincodec.Writer{B: append(buf.AvailableBuffer(), make([]byte, 8)...)}
	e.U64(gen)
	ingest.AppendBatch(&e, events, uploads)
	payload := e.B[8:]
	if len(payload) > maxFrameLen {
		return fmt.Errorf("persist: record of %d bytes exceeds frame bound", len(payload))
	}
	e.PutU32(0, uint32(len(payload)))
	e.PutU32(4, crc32.ChecksumIEEE(payload))
	buf.Write(e.B)
	return nil
}

// walRecord is one decoded journal record.
type walRecord struct {
	gen     uint64
	events  []ingest.Event
	uploads []string
}

// readRecord reads the next frame from a segment reader, returning the
// record and the frame's on-disk size. io.EOF means a clean end;
// errTorn means a partial or corrupt frame (crash tail).
func readRecord(src io.Reader) (walRecord, int64, error) {
	var rec walRecord
	var hdr [8]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		if err == io.EOF {
			return rec, 0, io.EOF
		}
		return rec, 0, errTorn // partial header
	}
	h := bincodec.NewReader(hdr[:])
	n, stored := h.U32(), h.U32()
	if n > maxFrameLen {
		return rec, 0, errTorn
	}
	size := int64(8) + int64(n)
	// Read as the bytes arrive: a torn tail's header claims up to
	// maxFrameLen that are not there.
	payload, err := bincodec.ReadN(src, int(n))
	if err != nil {
		return rec, 0, errTorn // partial payload
	}
	if crc32.ChecksumIEEE(payload) != stored {
		return rec, 0, errTorn
	}
	// The CRC proves the frame is what was written, not that a writer
	// wrote sense: the counts still answer to the reader's budgets.
	r := bincodec.NewReader(payload)
	rec.gen = r.U64()
	rec.events, rec.uploads = ingest.ReadBatch(&r, math.MaxInt)
	if err := r.Err(); err != nil {
		// The frame passed its CRC but does not parse: structural
		// corruption, not a torn tail — surface it as such.
		return rec, size, fmt.Errorf("persist: record decode: %w", err)
	}
	return rec, size, nil
}
