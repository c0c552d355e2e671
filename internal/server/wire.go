package server

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"sync"

	"viewstags/internal/bincodec"
	"viewstags/internal/ingest"
	"viewstags/internal/tagviews"
)

// This file is the compact binary codec for the shard-internal predict
// wire — the gateway↔shard hot path, and the only body /internal/predict
// takes. JSON would render a world-sized float64 vector as hundreds of
// bytes of number text per item per shard; at fan-out rates that
// encode/decode dominated the whole scatter-gather (see EXPERIMENTS.md
// "Fast internal wire"). Its primitives and their bounds rules are
// internal/bincodec's, the ones the checkpoint and the WAL are written
// with; an 8-byte magic whose trailing digits version the layout makes a
// layout change a new magic, not a silent misparse.
//
// A gateway POSTs /internal/predict with WireContentType and the shard
// answers in kind; any other content type is refused with a 415. The
// /internal/ingest leg's content type and ack are at the end of the file.
//
// Request frame (a rows frame, flags bit 2, has no weighting byte):
//
//	"VTIPRQ01" | flags u8 | weighting u8
//	| nItems uvarint
//	  ( nTags uvarint ( len uvarint | bytes )* )*
//	| [crc32 u32]
//
// Response frame (a rows frame has no weighting byte, and rows for items):
//
//	"VTIPRS03" | flags u8 | weighting u8 | version | nC uvarint | nItems uvarint
//	  ( wsum f64 [ sum f64 × nC  — present iff wsum > 0 ] )*
//	  ( views f64 [ videos uvarint | vec f64 × nC  — iff views > 0 ] )*
//	| [crc32 u32]
//	version = incarnation u64 | epoch u64 | records uvarint (ShardVersion)
//
// flags bit 0 set means the frame carries a CRC-32 trailer computed
// over everything after the flags byte (and before the trailer). The
// hot path runs CRC-off — the transport is TCP on a trusted segment —
// but a paranoid deployment can turn it on without a format change,
// and the decoder always verifies a trailer it finds.
//
// flags bit 2 marks a rows request, the gateway's row fetch: one tag per
// item, answered — the bit carried back, as CRC is — with the tag's row
// (profilestore.Snapshot.Row), which serves every weighting; it is absent
// when the tag is unknown or viewless, and its counts fit 32 bits. The
// gateway alone chooses which replica it asks for a tag; the shard
// answers every row it is asked. Bit 1 is unassigned and refused, like
// every other unknown bit. A row's vec is the tag's view sums and views
// their total, Mix's normalizer (VTIPRS02 rows carried normalized fields).
// StreamProtocol v5 versions this layout.
const (
	// WireContentType is the media type of /internal/predict frames.
	WireContentType = "application/x-viewstags-predict-v1"

	wireFlagCRC  = 1 << 0
	wireFlagRows = 1 << 2 // a rows request or its reply (see above)
)

var (
	wireReqMagic  = []byte("VTIPRQ01")
	wireRespMagic = []byte("VTIPRS03")
)

// ShardVersion is a shard's state as the shard states it on every message
// that reports it: replies, ingest acks, /internal/meta, transfer replies.
// Incarnation is the wall clock in nanoseconds at New, moved to max(now,
// current+1) by each transfer install (content no fold made) and never
// persisted, so a restart shows in the first message. Epoch is the fold
// epoch, Records the snapshot's record count.
type ShardVersion struct {
	Incarnation uint64 `json:"incarnation"`
	Epoch       uint64 `json:"epoch"`
	Records     int    `json:"records"`
}

// Compare orders two versions of one shard: by incarnation, then epoch (a
// restart may recover an older one). Records moves only with one of them.
func (v ShardVersion) Compare(w ShardVersion) int {
	if c := cmp.Compare(v.Incarnation, w.Incarnation); c != 0 {
		return c
	}
	return cmp.Compare(v.Epoch, w.Epoch)
}

// appendVersion writes v as the binary messages carry it.
func appendVersion(w *bincodec.Writer, v ShardVersion) {
	w.U64(v.Incarnation)
	w.U64(v.Epoch)
	w.Uvarint(uint64(v.Records))
}

// readVersion reads what appendVersion wrote, refusing a record count
// above maxRecords.
func readVersion(r *bincodec.Reader, maxRecords int) (v ShardVersion) {
	v.Incarnation = r.U64()
	v.Epoch = r.U64()
	v.Records = r.Count("record", maxRecords, 0)
	return v
}

// MaxTagLen bounds a single tag name at every predict entry point —
// public JSON, internal JSON, and the binary wire. Real vocabulary
// tags are tens of bytes; the bound exists so the binary decoder can
// refuse a corrupt length before allocating it, and it is enforced
// uniformly at the JSON edges (validTags) so both wires accept exactly
// the same requests — a tag the gateway accepts must never bounce off
// a shard's decoder mid-fan-out.
const MaxTagLen = 1 << 16

// checkHeader consumes magic + flags, verifying the CRC trailer (and
// cutting it off) when the flags announce one. allowed is the mask of
// flag bits this frame kind may carry. Returns the flags byte.
func checkHeader(r *bincodec.Reader, magic []byte, allowed byte) byte {
	if got := r.Bytes(len(magic)); r.Err() == nil && !bytes.Equal(got, magic) {
		r.Fail(fmt.Errorf("server: not a binary predict frame (magic %q)", got))
	}
	flags := r.U8()
	if flags&^allowed != 0 {
		// Unknown flag bits mean a frame from a future layout this
		// decoder cannot honor; refusing beats silently misparsing.
		r.Fail(fmt.Errorf("server: binary frame flags %#02x carry unknown bits", flags))
	}
	if flags&wireFlagCRC != 0 {
		r.CutCRC()
	}
	return flags
}

// AppendPredictRequest appends the binary /internal/predict request
// frame for the given items to dst and returns the extended slice.
// Encoding into a recycled dst is allocation-free once the buffer has
// grown to steady-state size.
func AppendPredictRequest(dst []byte, items [][]string, weighting tagviews.Weighting, crc bool) []byte {
	return appendPredictRequest(dst, items, nil, weighting, crc)
}

// AppendRowsRequest appends a rows request for each tag's row. Which
// replica it goes to is the caller's choice; the shard answers each row.
func AppendRowsRequest(dst []byte, tags []string) []byte {
	return appendPredictRequest(dst, nil, tags, 0, false)
}

// appendPredictRequest writes a request frame over items, or — when rows
// is not nil and items is — a rows request with one item per row tag.
func appendPredictRequest(dst []byte, items [][]string, rows []string, weighting tagviews.Weighting, crc bool) []byte {
	start := len(dst)
	w := bincodec.Writer{B: append(dst, wireReqMagic...)}
	var flags byte
	if crc {
		flags |= wireFlagCRC
	}
	if rows != nil {
		flags |= wireFlagRows
	}
	w.U8(flags)
	if rows == nil {
		w.U8(byte(weighting))
	}
	w.Uvarint(uint64(len(items) + len(rows)))
	for _, tags := range items {
		w.Uvarint(uint64(len(tags)))
		for _, t := range tags {
			w.Str(t)
		}
	}
	for _, t := range rows {
		w.Uvarint(1)
		w.Str(t)
	}
	if crc {
		w.CRC(start + len(wireReqMagic) + 1)
	}
	return w.B
}

// DecodePredictRequest parses a frame written by AppendPredictRequest.
// The items share one backing slice of tag lists; tag strings are
// freshly allocated (they outlive the request body as map keys into
// the snapshot's interner). Also reports whether the frame carried a
// CRC trailer, so the reply can mirror the caller's integrity choice.
func DecodePredictRequest(data []byte) (items [][]string, weighting tagviews.Weighting, crc bool, err error) {
	items, weighting, flags, err := decodePredictRequest(data, math.MaxInt)
	return items, weighting, flags&wireFlagCRC != 0, err
}

// decodePredictRequest is DecodePredictRequest with the frame's flags
// byte, refusing an item count above maxItems, and an item's tag count
// above ingest.MaxEventTags, before allocating it.
func decodePredictRequest(data []byte, maxItems int) (items [][]string, weighting tagviews.Weighting, flags byte, err error) {
	r := bincodec.NewReader(data)
	flags = checkHeader(&r, wireReqMagic, wireFlagCRC|wireFlagRows)
	if flags&wireFlagRows == 0 {
		switch weighting = tagviews.Weighting(r.U8()); weighting {
		case tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF:
		default:
			r.Fail(fmt.Errorf("server: binary frame weighting byte %d invalid", weighting))
		}
	}
	// Every item and every tag costs at least one byte on the wire.
	items = make([][]string, r.Count("item", maxItems, 1))
	for i := range items {
		n := r.Count("tag", ingest.MaxEventTags, 1)
		if flags&wireFlagRows != 0 && n != 1 {
			r.Fail(fmt.Errorf("server: rows frame item %d has %d tags, want 1", i, n))
			break
		}
		tags := make([]string, n)
		for j := range tags {
			tags[j] = r.Str(MaxTagLen)
		}
		items[i] = tags
	}
	if err := r.End(); err != nil {
		return nil, 0, 0, fmt.Errorf("server: binary request frame: %w", err)
	}
	return items, weighting, flags, nil
}

// PredictWireEncoder streams a binary /internal/predict response: Begin
// writes the header, Item appends one partial mixture (straight from
// the handler's scratch vector — no intermediate copy), Finish seals
// the optional CRC trailer and returns the frame. The encoder's buffer
// is retained across uses, so a pooled encoder reaches zero
// allocations per response at steady state.
type PredictWireEncoder struct {
	w   bincodec.Writer
	crc bool
}

// Begin resets the encoder and writes a plain reply's header, versioned by
// epoch and records alone: bench/ledger.go's signature (ROADMAP item 1).
func (e *PredictWireEncoder) Begin(weighting tagviews.Weighting, records int, epoch uint64, nC int, nItems int, crc bool) {
	e.begin(weighting, ShardVersion{Epoch: epoch, Records: records}, nC, nItems, crc, 0)
}

// BeginRows is Begin for a rows reply, whose items are written with Row.
func (e *PredictWireEncoder) BeginRows(v ShardVersion, nC int, nItems int, crc bool) {
	e.begin(0, v, nC, nItems, crc, wireFlagRows)
}

// begin is Begin with a whole version and the flag bits besides CRC: a
// rows reply has no weighting byte.
func (e *PredictWireEncoder) begin(weighting tagviews.Weighting, v ShardVersion, nC int, nItems int, crc bool, flags byte) {
	e.w.B = append(e.w.B[:0], wireRespMagic...)
	if e.crc = crc; crc {
		flags |= wireFlagCRC
	}
	e.w.U8(flags)
	if flags&wireFlagRows == 0 {
		e.w.U8(byte(weighting))
	}
	appendVersion(&e.w, v)
	e.w.Uvarint(uint64(nC))
	e.w.Uvarint(uint64(nItems))
}

// Item appends one partial: the weight sum, then — iff the weight sum
// is positive — the unnormalized vector as raw little-endian float64
// bits. vec must have the nC length Begin declared.
func (e *PredictWireEncoder) Item(wsum float64, vec []float64) {
	e.w.F64(wsum)
	if wsum > 0 {
		e.w.F64s(vec)
	}
}

// Row appends a rows reply's item: views, then iff positive videos and vec.
func (e *PredictWireEncoder) Row(views float64, videos int, vec []float64) {
	e.w.F64(views)
	if views > 0 {
		e.w.Uvarint(uint64(videos))
		e.w.F64s(vec)
	}
}

// Finish seals the frame (appending the CRC trailer when Begin asked
// for one) and returns it. The returned slice aliases the encoder's
// buffer: it is valid until the next Begin.
func (e *PredictWireEncoder) Finish() []byte {
	if e.crc {
		e.w.CRC(len(wireRespMagic) + 1)
	}
	return e.w.B
}

// wireEncPool recycles response encoders (and their grown buffers)
// across requests.
var wireEncPool = sync.Pool{New: func() any { return new(PredictWireEncoder) }}

// GetPredictWireEncoder takes a pooled encoder; return it with
// PutPredictWireEncoder once the frame has been written out.
func GetPredictWireEncoder() *PredictWireEncoder { return wireEncPool.Get().(*PredictWireEncoder) }

// PutPredictWireEncoder returns an encoder to the pool.
func PutPredictWireEncoder(e *PredictWireEncoder) { wireEncPool.Put(e) }

// PredictPartials is the decoded form of a binary /internal/predict
// response, laid out for merging: WSums[i] is item i's weight sum and
// Sums[i*NC:(i+1)*NC] its unnormalized vector (zeroed when the weight
// sum is zero). The flat row-major slab lets a gateway accumulate
// shard replies with one tight loop per row and no per-item slices.
// Decode into a recycled value to amortize the slabs. In a rows reply
// (Rows; Weighting invalid) they are each row's views and vec, and
// Videos[i] is a present row's videos. Version is the answering shard's.
type PredictPartials struct {
	Rows      bool
	Weighting tagviews.Weighting
	Version   ShardVersion
	NC        int
	NItems    int
	WSums     []float64
	Sums      []float64
	Videos    []int
}

// DecodePredictResponse parses a frame produced by PredictWireEncoder
// into out, reusing out's slabs when they are large enough. maxItems
// and maxC cap the item and country counts the caller is prepared to
// accept — a gateway passes the batch size it sent and its own country
// table width. They bound the nItems×nC slab *before* it is allocated:
// without them a corrupt or byzantine reply could claim a shape whose
// slab is gigabytes while the frame itself is kilobytes (zero-weight
// items cost 8 bytes each on the wire but a full row in the slab), and
// the decoder must never allocate the size of the corruption.
func DecodePredictResponse(data []byte, out *PredictPartials, maxItems, maxC int) error {
	r := bincodec.NewReader(data)
	out.Rows = checkHeader(&r, wireRespMagic, wireFlagCRC|wireFlagRows)&wireFlagRows != 0
	maxCount := min(math.MaxUint32, math.MaxInt) // a rows reply's counts fit 32 bits
	if out.Weighting = tagviews.WeightingInvalid; !out.Rows {
		out.Weighting, maxCount = tagviews.Weighting(r.U8()), math.MaxInt
	}
	out.Version = readVersion(&r, maxCount)
	nC := r.Count("country", maxC, 0)
	// Each item costs at least 8 bytes (its weight sum).
	nItems := r.Count("item", maxItems, 8)
	out.NC, out.NItems = nC, nItems
	out.WSums = grow(out.WSums, nItems)
	out.Sums = grow(out.Sums, nItems*nC)
	if out.Rows {
		out.Videos = grow(out.Videos, nItems)
	}
	for i := 0; i < nItems && r.Err() == nil; i++ {
		ws := r.F64()
		out.WSums[i] = ws
		row := out.Sums[i*nC : (i+1)*nC]
		if ws > 0 {
			if out.Rows {
				out.Videos[i] = r.Count("video", maxCount, 0)
			}
			r.F64s(row)
		} else {
			// Absent row: zero it so a recycled slab never leaks a
			// previous response's values.
			clear(row)
		}
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("server: binary response frame: %w", err)
	}
	return nil
}

// grow returns s resized to n, reallocating only when capacity falls
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// The ingest leg: a gateway POSTs /internal/ingest with
// IngestContentType and the body ingest.AppendBatch writes — the shard's
// share of a batch, as events over country ids, then bare upload
// announcements — the bytes a WAL record carries after its generation.
// The shard acks in kind, with its version after accepting:
//
//	accepted uvarint | version | pending varint
//
// Any other content type is refused with a 415, and errors go out as the
// JSON error envelope, as on /internal/predict. The version lives in the
// content type: a layout change is a new one.
const IngestContentType = "application/x-viewstags-ingest-v2"

// IngestAck is a shard's /internal/ingest ack: what it accepted, its
// version then, and what it holds unfolded.
type IngestAck struct {
	Accepted int
	Version  ShardVersion
	Pending  int64
}

// appendIngestAck appends the binary /internal/ingest ack.
func appendIngestAck(dst []byte, ack *IngestAck) []byte {
	w := bincodec.Writer{B: dst}
	w.Uvarint(uint64(ack.Accepted))
	appendVersion(&w, ack.Version)
	w.Varint(ack.Pending)
	return w.B
}

// DecodeIngestAck parses a shard's /internal/ingest ack.
func DecodeIngestAck(data []byte, ack *IngestAck) error {
	r := bincodec.NewReader(data)
	ack.Accepted = int(r.Uvarint())
	ack.Version = readVersion(&r, math.MaxInt)
	ack.Pending = r.Varint()
	if err := r.End(); err != nil {
		return fmt.Errorf("server: ingest ack: %w", err)
	}
	return nil
}

// wireBufPool recycles request/response byte buffers across the binary
// hot path (gateway request encode, shard body reads).
var wireBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getWireBuf takes a pooled, reset bytes.Buffer.
func getWireBuf() *bytes.Buffer {
	b := wireBufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putWireBuf returns a buffer to the pool.
func putWireBuf(b *bytes.Buffer) { wireBufPool.Put(b) }
