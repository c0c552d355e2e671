package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"

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
//	"VTCKPT01" | payload | crc32(payload)
//
// where payload is the snapshot codec below (generation, epoch, record
// count, country table, prior, profiles, dense vector table).
//
// WAL segment file:
//
//	"VTWAL001" | frame*
//
// where each frame is
//
//	u32 len | u32 crc32(payload) | payload
//
// and payload is one journaled ingest batch (generation, events,
// upload announcements). A crash mid-append leaves a torn final frame;
// readFrame reports it as errTorn and recovery truncates it away.
var (
	ckptMagic = []byte("VTCKPT01")
	walMagic  = []byte("VTWAL001")
)

// Decode-time sanity bounds: a corrupt length must produce an error,
// not an allocation the size of the corruption. Below them, a decoder
// allocates as bytes arrive (dec.take, the snapshot's growing slices and
// vector chunks) or bounds a count by the bytes left (readRecord), so
// what it allocates is a small multiple of what its input held.
const (
	maxStrLen    = 1 << 20
	maxCountries = 1 << 16
	maxTags      = 1 << 28
	maxFrameLen  = 64 << 20

	// takeChunk is the most take allocates before the first byte arrives.
	takeChunk = 4 << 10
	// vecChunk is the first vector chunk ReadSnapshot allocates, in
	// float64s (at least one vector); each later chunk holds as many
	// vectors as have arrived.
	vecChunk = 8 << 10
)

// errTorn marks a partially written (or CRC-corrupt) frame at a WAL
// segment tail.
var errTorn = fmt.Errorf("persist: torn record")

// enc is a little-endian primitive writer with sticky error capture.
type enc struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *enc) bytes(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *enc) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.bytes(e.buf[:8])
}

func (e *enc) uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.bytes(e.buf[:n])
}

func (e *enc) varint(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.bytes(e.buf[:n])
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}

func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) f64s(v []float64) {
	for _, x := range v {
		e.f64(x)
	}
}

// dec is the matching reader. When crc is non-nil every consumed byte
// feeds it, so the caller can compare against a stored checksum after
// decoding.
type dec struct {
	r   io.Reader
	crc hash.Hash32
	err error
	buf [8]byte
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) bytes(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.fail(err)
		return
	}
	if d.crc != nil {
		_, _ = d.crc.Write(p)
	}
}

func (d *dec) u64() uint64 {
	d.bytes(d.buf[:8])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:8])
}

// readByte feeds the CRC, unlike d.r.ReadByte.
func (d *dec) readByte() (byte, error) {
	d.bytes(d.buf[:1])
	if d.err != nil {
		return 0, d.err
	}
	return d.buf[0], nil
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(byteReaderFunc(d.readByte))
	if err != nil {
		d.fail(err)
		return 0
	}
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(byteReaderFunc(d.readByte))
	if err != nil {
		d.fail(err)
		return 0
	}
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStrLen {
		d.fail(fmt.Errorf("persist: string length %d exceeds bound", n))
		return ""
	}
	return string(d.take(n))
}

// take reads n bytes into a slice grown as they arrive — from takeChunk,
// doubling, up to n — so a corrupt length fails at EOF having allocated
// about twice what the input held.
func (d *dec) take(n uint64) []byte {
	p := make([]byte, 0, min(n, takeChunk))
	for uint64(len(p)) < n && d.err == nil {
		if len(p) == cap(p) {
			p = slices.Grow(p, int(min(n-uint64(len(p)), uint64(len(p)))))
		}
		k := int(min(n-uint64(len(p)), uint64(cap(p)-len(p))))
		p = p[:len(p)+k]
		d.bytes(p[len(p)-k:])
	}
	return p
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) f64s(out []float64) {
	for i := range out {
		out[i] = d.f64()
	}
}

// appendGrown appends x, doubling s's capacity when it is full: a slice
// grown to n this way has allocated under 2n in all, where append's
// 1.25× steps for large slices allocate ≈5n. It is for a count whose
// elements take a byte or eight of input each (country codes, the prior),
// where ≈5n would outgrow what the input paid for; the profiles (twenty
// bytes or more each) use plain append, whose table stays ≈1.25× its
// length for as long as a restored store keeps it.
func appendGrown[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	return append(s, x)
}

type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }

// WriteSnapshot encodes a checkpoint: magic, versioned payload
// (generation, epoch and the exported snapshot), trailing CRC. The
// writer should be a buffered file; WriteSnapshot does not fsync.
func WriteSnapshot(w io.Writer, meta CheckpointMeta, data profilestore.SnapshotData) error {
	if len(data.Vecs) != len(data.Profiles) {
		return fmt.Errorf("persist: %d vectors for %d profiles", len(data.Vecs), len(data.Profiles))
	}
	if _, err := w.Write(ckptMagic); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	e := &enc{w: io.MultiWriter(w, crc)}
	e.u64(meta.Gen)
	e.u64(meta.Epoch)
	e.u64(uint64(data.Records))
	e.uvarint(uint64(len(data.Codes)))
	for _, c := range data.Codes {
		e.str(c)
	}
	e.f64s(data.Prior)
	e.uvarint(uint64(len(data.Profiles)))
	for i := range data.Profiles {
		p := &data.Profiles[i]
		e.str(p.Name)
		e.uvarint(uint64(p.Videos))
		e.f64(p.TotalViews)
		e.varint(int64(p.Spread))
		e.varint(int64(p.TopCountry))
		e.f64(p.TopShare)
	}
	for _, vec := range data.Vecs {
		if len(vec) != len(data.Codes) {
			return fmt.Errorf("persist: vector has %d entries for %d countries", len(vec), len(data.Codes))
		}
		e.f64s(vec)
	}
	if e.err != nil {
		return e.err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// ReadSnapshot decodes a checkpoint written by WriteSnapshot, verifying
// magic and checksum. The returned data is freshly allocated (vectors
// share a few slab chunks), ready for profilestore.FromData.
func ReadSnapshot(r io.Reader) (CheckpointMeta, profilestore.SnapshotData, error) {
	var meta CheckpointMeta
	var data profilestore.SnapshotData
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return meta, data, fmt.Errorf("persist: checkpoint header: %w", err)
	}
	if !bytes.Equal(magic, ckptMagic) {
		return meta, data, fmt.Errorf("persist: not a checkpoint file (magic %q)", magic)
	}
	d := &dec{r: br, crc: crc32.NewIEEE()}
	meta.Gen = d.u64()
	meta.Epoch = d.u64()
	data.Records = int(d.u64())
	nCodes := d.uvarint()
	if d.err == nil && nCodes > maxCountries {
		d.fail(fmt.Errorf("persist: country count %d exceeds bound", nCodes))
	}
	if d.err == nil {
		// Grown as they arrive, like the profiles below: nCodes is a claim.
		for uint64(len(data.Codes)) < nCodes && d.err == nil {
			data.Codes = appendGrown(data.Codes, d.str())
		}
		for uint64(len(data.Prior)) < nCodes && d.err == nil {
			data.Prior = appendGrown(data.Prior, d.f64())
		}
	}
	nTags := d.uvarint()
	if d.err == nil && nTags > maxTags {
		d.fail(fmt.Errorf("persist: tag count %d exceeds bound", nTags))
	}
	if d.err == nil {
		// Grow by appending rather than trusting the count: a corrupt
		// nTags must fail at EOF after the real bytes run out, not
		// preallocate gigabytes before the trailing CRC is ever
		// checked (recovery's fallback-to-older-checkpoint depends on
		// corrupt files erroring, not OOM-killing the process).
		for i := 0; i < int(nTags) && d.err == nil; i++ {
			p := profilestore.Profile{ID: int32(i)}
			p.Name = d.str()
			p.Videos = int(d.uvarint())
			p.TotalViews = d.f64()
			p.Spread = dist.Spread(d.varint())
			p.TopCountry = geo.CountryID(d.varint())
			p.TopShare = d.f64()
			data.Profiles = append(data.Profiles, p)
		}
	}
	if d.err == nil {
		// Bytes proved each of nTags and nCodes, not their product: the
		// vectors' slab is allocated a chunk at a time, each chunk holding
		// as many vectors as have arrived, so a file truncated after its
		// profiles fails at EOF having allocated one chunk, not the product.
		// The prior proved one vector's size.
		nC := int(nCodes)
		data.Vecs = make([][]float64, nTags)
		var slab []float64
		for i := range data.Vecs {
			if len(slab) < nC {
				k := min(len(data.Vecs)-i, max(i, vecChunk/max(nC, 1), 1))
				slab = make([]float64, k*nC)
			}
			vec := slab[:nC:nC]
			slab = slab[nC:]
			d.f64s(vec)
			data.Vecs[i] = vec
			if d.err != nil {
				break
			}
		}
	}
	if d.err != nil {
		return meta, data, fmt.Errorf("persist: checkpoint decode: %w", d.err)
	}
	sum := d.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return meta, data, fmt.Errorf("persist: checkpoint checksum missing: %w", err)
	}
	if stored := binary.LittleEndian.Uint32(tail[:]); stored != sum {
		return meta, data, fmt.Errorf("persist: checkpoint checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	return meta, data, nil
}

// encodeRecord serializes one journaled ingest batch into buf
// (resetting it first) as a CRC-framed record ready to append.
func encodeRecord(buf *bytes.Buffer, gen uint64, events []ingest.Event, uploads []string) error {
	buf.Reset()
	// Reserve the frame header; payload follows.
	buf.Write(make([]byte, 8))
	e := &enc{w: buf}
	e.u64(gen)
	e.uvarint(uint64(len(events)))
	for i := range events {
		ev := &events[i]
		e.str(ev.Video)
		e.uvarint(uint64(len(ev.Tags)))
		for _, t := range ev.Tags {
			e.str(t)
		}
		e.uvarint(uint64(int(ev.Country)))
		e.f64(ev.Views)
		if ev.Upload {
			e.bytes([]byte{1})
		} else {
			e.bytes([]byte{0})
		}
	}
	e.uvarint(uint64(len(uploads)))
	for _, v := range uploads {
		e.str(v)
	}
	if e.err != nil {
		return e.err
	}
	frame := buf.Bytes()
	payload := frame[8:]
	if len(payload) > maxFrameLen {
		return fmt.Errorf("persist: record of %d bytes exceeds frame bound", len(payload))
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// minEventLen is the fewest bytes an encoded event takes: an empty video
// id, no tags, a one-byte country, the views and the upload flag.
const minEventLen = 1 + 1 + 1 + 8 + 1

// walRecord is one decoded journal record.
type walRecord struct {
	gen     uint64
	events  []ingest.Event
	uploads []string
}

// readRecord reads the next frame from a segment reader, returning the
// record and the frame's on-disk size. io.EOF means a clean end;
// errTorn means a partial or corrupt frame (crash tail).
func readRecord(br *bufio.Reader) (walRecord, int64, error) {
	var rec walRecord
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return rec, 0, io.EOF
		}
		return rec, 0, errTorn // partial header
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	stored := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrameLen {
		return rec, 0, errTorn
	}
	size := int64(8) + int64(n)
	// Read as the bytes arrive: a torn tail's header claims up to
	// maxFrameLen that are not there.
	hd := &dec{r: br}
	payload := hd.take(uint64(n))
	if hd.err != nil {
		return rec, 0, errTorn // partial payload
	}
	if crc32.ChecksumIEEE(payload) != stored {
		return rec, 0, errTorn
	}
	pr := bytes.NewReader(payload)
	d := &dec{r: pr}
	// A count past what the bytes left could encode fails before its make:
	// the CRC proves the frame is what was written, not that a writer
	// wrote sense.
	left := func() uint64 { return uint64(pr.Len()) }
	rec.gen = d.u64()
	nEvents := d.uvarint()
	if d.err == nil && nEvents > left()/minEventLen {
		d.fail(fmt.Errorf("persist: event count %d exceeds the %d bytes left", nEvents, left()))
	}
	if d.err == nil {
		rec.events = make([]ingest.Event, nEvents)
		for i := range rec.events {
			ev := &rec.events[i]
			ev.Video = d.str()
			nt := d.uvarint()
			if d.err == nil && nt > left() {
				d.fail(fmt.Errorf("persist: tag count %d exceeds the %d bytes left", nt, left()))
			}
			if d.err != nil {
				break
			}
			ev.Tags = make([]string, nt)
			for j := range ev.Tags {
				ev.Tags[j] = d.str()
			}
			ev.Country = geo.CountryID(d.uvarint())
			ev.Views = d.f64()
			b, err := d.readByte()
			if err == nil {
				ev.Upload = b != 0
			}
		}
	}
	nUploads := d.uvarint()
	if d.err == nil && nUploads > left() {
		d.fail(fmt.Errorf("persist: upload count %d exceeds the %d bytes left", nUploads, left()))
	}
	if d.err == nil {
		rec.uploads = make([]string, nUploads)
		for i := range rec.uploads {
			rec.uploads[i] = d.str()
		}
	}
	if d.err != nil {
		// The frame passed its CRC but does not parse: structural
		// corruption, not a torn tail — surface it as such.
		return rec, size, fmt.Errorf("persist: record decode: %w", d.err)
	}
	return rec, size, nil
}
