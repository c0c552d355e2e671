package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"

	"viewstags/internal/tagviews"
)

// This file is the compact binary codec for the shard-internal predict
// wire — the gateway↔shard hot path, and the only body /internal/predict
// takes. JSON would render a world-sized float64 vector as hundreds of
// bytes of number text per item per shard; at fan-out rates that
// encode/decode dominated the whole scatter-gather (see EXPERIMENTS.md
// "Fast internal wire"). The binary frame keeps the persist package's
// conventions — an 8-byte magic whose trailing digits version the
// layout, little-endian fixed-width primitives, uvarint counts, raw
// float64 bit-pattern slabs, an optional CRC-32 (IEEE) trailer — so a
// layout change is a new magic, not a silent misparse.
//
// A gateway POSTs /internal/predict with WireContentType and the shard
// answers in kind; any other content type is refused with a 415.
//
// Request frame:
//
//	"VTIPRQ01" | flags u8 | weighting u8
//	| [nExclude uvarint ( shard uvarint )*  — present iff flags bit 1]
//	| nItems uvarint
//	  ( nTags uvarint ( len uvarint | bytes )* )*
//	| [crc32 u32]
//
// Response frame:
//
//	"VTIPRS01" | flags u8 | weighting u8 | records uvarint | epoch u64
//	| nC uvarint | nItems uvarint
//	  ( wsum f64 [ sum f64 × nC  — present iff wsum > 0 ] )*
//	| [crc32 u32]
//
// flags bit 0 set means the frame carries a CRC-32 trailer computed
// over everything after the flags byte (and before the trailer). The
// hot path runs CRC-off — the transport is TCP on a trusted segment —
// but a paranoid deployment can turn it on without a format change,
// and the decoder always verifies a trailer it finds.
const (
	// WireContentType is the media type of /internal/predict frames.
	WireContentType = "application/x-viewstags-predict-v1"

	wireFlagCRC = 1 << 0
	// wireFlagExclude marks a request frame that carries a shard
	// exclusion list — the replicated tier's failover signal: the shard
	// serves only tags the shared ring assigns to it once the excluded
	// replicas are out of rotation. Absent on unreplicated requests, so
	// the R=1 frame stays byte-identical to the pre-replication wire.
	wireFlagExclude = 1 << 1
)

var (
	wireReqMagic  = []byte("VTIPRQ01")
	wireRespMagic = []byte("VTIPRS01")
)

// MaxTagLen bounds a single tag name at every predict entry point —
// public JSON, internal JSON, and the binary wire. Real vocabulary
// tags are tens of bytes; the bound exists so the binary decoder can
// refuse a corrupt length before allocating it, and it is enforced
// uniformly at the JSON edges (validTags) so both wires accept exactly
// the same requests — a tag the gateway accepts must never bounce off
// a shard's decoder mid-fan-out.
const MaxTagLen = 1 << 16

// wireMaxCountries is the decode-time sanity bound on the claimed
// country-table width, mirroring internal/persist: a corrupt count
// must error, not allocate the size of the corruption. Per-frame
// totals are additionally bounded by remaining input bytes.
const wireMaxCountries = 1 << 16

// wireWriter appends primitives to a byte slice.
type wireWriter struct {
	b []byte
}

func (w *wireWriter) u8(v byte)        { w.b = append(w.b, v) }
func (w *wireWriter) u32(v uint32)     { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64)     { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wireWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *wireWriter) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *wireWriter) str(s string)     { w.uvarint(uint64(len(s))); w.b = append(w.b, s...) }

// finish appends the CRC trailer (over everything after the flags byte)
// when the frame's flags request one.
func (w *wireWriter) finish(magicLen int, crc bool) []byte {
	if crc {
		w.u32(crc32.ChecksumIEEE(w.b[magicLen+1 : len(w.b)]))
	}
	return w.b
}

// wireReader consumes primitives from a byte slice with sticky errors.
type wireReader struct {
	b   []byte
	off int
	err error
}

var errWireTruncated = fmt.Errorf("server: truncated binary frame")

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail(errWireTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail(errWireTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(errWireTruncated)
		return 0
	}
	// The encoder only ever emits minimal varints; insisting on them
	// here keeps the codec bijective (one value, one encoding), so a
	// frame that decodes always re-encodes byte-identically.
	minLen := 1
	if v > 0 {
		minLen = (bits.Len64(v) + 6) / 7
	}
	if n != minLen {
		r.fail(fmt.Errorf("server: binary frame varint is non-canonical (%d bytes for %d)", n, v))
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) str(maxLen int) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(maxLen) || n > uint64(r.remaining()) {
		r.fail(fmt.Errorf("server: binary frame string length %d exceeds bound", n))
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// checkHeader consumes magic + flags, verifying the CRC trailer (and
// trimming it off) when the flags announce one. allowed is the mask of
// flag bits this frame kind may carry. Returns the flags byte.
func (r *wireReader) checkHeader(magic []byte, allowed byte) byte {
	if r.remaining() < len(magic)+1 {
		r.fail(errWireTruncated)
		return 0
	}
	if !bytes.Equal(r.b[:len(magic)], magic) {
		r.fail(fmt.Errorf("server: not a binary predict frame (magic %q)", r.b[:len(magic)]))
		return 0
	}
	r.off = len(magic)
	flags := r.u8()
	if flags&^allowed != 0 {
		// Unknown flag bits mean a frame from a future layout this
		// decoder cannot honor; refusing beats silently misparsing.
		r.fail(fmt.Errorf("server: binary frame flags %#02x carry unknown bits", flags))
		return 0
	}
	if flags&wireFlagCRC != 0 {
		if r.remaining() < 4 {
			r.fail(errWireTruncated)
			return 0
		}
		body := r.b[r.off : len(r.b)-4]
		stored := binary.LittleEndian.Uint32(r.b[len(r.b)-4:])
		if sum := crc32.ChecksumIEEE(body); sum != stored {
			r.fail(fmt.Errorf("server: binary frame checksum mismatch (stored %08x, computed %08x)", stored, sum))
			return 0
		}
		r.b = r.b[:len(r.b)-4]
	}
	return flags
}

// AppendPredictRequest appends the binary /internal/predict request
// frame for the given items to dst and returns the extended slice.
// Encoding into a recycled dst is allocation-free once the buffer has
// grown to steady-state size.
func AppendPredictRequest(dst []byte, items [][]string, weighting tagviews.Weighting, crc bool) []byte {
	return AppendPredictRequestExclude(dst, items, weighting, nil, crc)
}

// AppendPredictRequestExclude is AppendPredictRequest with a shard
// exclusion list: the replicas the gateway has taken out of read
// rotation (down or re-syncing), so each shard can compute — from the
// shared ring alone — which of its replicated tags it serves on this
// request. An empty list encodes the exact pre-replication frame.
func AppendPredictRequestExclude(dst []byte, items [][]string, weighting tagviews.Weighting, exclude []int, crc bool) []byte {
	w := wireWriter{b: append(dst, wireReqMagic...)}
	var flags byte
	if crc {
		flags |= wireFlagCRC
	}
	if len(exclude) > 0 {
		flags |= wireFlagExclude
	}
	w.u8(flags)
	w.u8(byte(weighting))
	if len(exclude) > 0 {
		w.uvarint(uint64(len(exclude)))
		for _, s := range exclude {
			w.uvarint(uint64(s))
		}
	}
	w.uvarint(uint64(len(items)))
	for _, tags := range items {
		w.uvarint(uint64(len(tags)))
		for _, t := range tags {
			w.str(t)
		}
	}
	return w.finish(len(wireReqMagic), crc)
}

// DecodePredictRequest parses a frame written by AppendPredictRequest.
// The items share one backing slice of tag lists; tag strings are
// freshly allocated (they outlive the request body as map keys into
// the snapshot's interner). Also reports whether the frame carried a
// CRC trailer, so the reply can mirror the caller's integrity choice.
func DecodePredictRequest(data []byte) (items [][]string, weighting tagviews.Weighting, crc bool, err error) {
	items, weighting, _, crc, err = decodePredictRequestExclude(data)
	return items, weighting, crc, err
}

// decodePredictRequestExclude is DecodePredictRequest plus the frame's
// shard exclusion list (nil when the flag is absent).
func decodePredictRequestExclude(data []byte) (items [][]string, weighting tagviews.Weighting, exclude []int, crc bool, err error) {
	r := wireReader{b: data}
	flags := r.checkHeader(wireReqMagic, wireFlagCRC|wireFlagExclude)
	weighting = tagviews.Weighting(r.u8())
	if r.err == nil {
		switch weighting {
		case tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF:
		default:
			r.fail(fmt.Errorf("server: binary frame weighting byte %d invalid", weighting))
		}
	}
	if flags&wireFlagExclude != 0 && r.err == nil {
		nExcl := r.uvarint()
		if r.err == nil && nExcl > uint64(r.remaining()) {
			r.fail(fmt.Errorf("server: binary frame exclude count %d exceeds bound", nExcl))
		}
		if r.err == nil {
			exclude = make([]int, nExcl)
			for i := range exclude {
				exclude[i] = int(r.uvarint())
			}
		}
	}
	nItems := r.uvarint()
	// Every item costs at least one byte on the wire, so the remaining
	// length bounds the count before anything is allocated.
	if r.err == nil && nItems > uint64(r.remaining()) {
		r.fail(fmt.Errorf("server: binary frame item count %d exceeds bound", nItems))
	}
	if r.err == nil {
		items = make([][]string, nItems)
		for i := range items {
			nTags := r.uvarint()
			if r.err != nil {
				break
			}
			if nTags > uint64(r.remaining()) {
				r.fail(fmt.Errorf("server: binary frame tag count %d exceeds bound", nTags))
				break
			}
			tags := make([]string, nTags)
			for j := range tags {
				tags[j] = r.str(MaxTagLen)
			}
			items[i] = tags
		}
	}
	if r.err == nil && r.remaining() > 0 {
		r.fail(fmt.Errorf("server: %d trailing bytes after binary request frame", r.remaining()))
	}
	if r.err != nil {
		return nil, 0, nil, false, r.err
	}
	return items, weighting, exclude, flags&wireFlagCRC != 0, nil
}

// PredictWireEncoder streams a binary /internal/predict response: Begin
// writes the header, Item appends one partial mixture (straight from
// the handler's scratch vector — no intermediate copy), Finish seals
// the optional CRC trailer and returns the frame. The encoder's buffer
// is retained across uses, so a pooled encoder reaches zero
// allocations per response at steady state.
type PredictWireEncoder struct {
	w   wireWriter
	crc bool
}

// Begin resets the encoder and writes the response header.
func (e *PredictWireEncoder) Begin(weighting tagviews.Weighting, records int, epoch uint64, nC int, nItems int, crc bool) {
	e.w.b = append(e.w.b[:0], wireRespMagic...)
	e.crc = crc
	var flags byte
	if crc {
		flags |= wireFlagCRC
	}
	e.w.u8(flags)
	e.w.u8(byte(weighting))
	e.w.uvarint(uint64(records))
	e.w.u64(epoch)
	e.w.uvarint(uint64(nC))
	e.w.uvarint(uint64(nItems))
}

// Item appends one partial: the weight sum, then — iff the weight sum
// is positive — the unnormalized vector as raw little-endian float64
// bits. vec must have the nC length Begin declared.
func (e *PredictWireEncoder) Item(wsum float64, vec []float64) {
	e.w.f64(wsum)
	if wsum > 0 {
		need := len(vec) * 8
		off := len(e.w.b)
		e.w.b = append(e.w.b, make([]byte, need)...)
		for _, x := range vec {
			binary.LittleEndian.PutUint64(e.w.b[off:], math.Float64bits(x))
			off += 8
		}
	}
}

// Finish seals the frame (appending the CRC trailer when Begin asked
// for one) and returns it. The returned slice aliases the encoder's
// buffer: it is valid until the next Begin.
func (e *PredictWireEncoder) Finish() []byte {
	return e.w.finish(len(wireRespMagic), e.crc)
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
// Decode into a recycled value to amortize the slabs.
type PredictPartials struct {
	Weighting tagviews.Weighting
	Records   int
	Epoch     uint64
	NC        int
	NItems    int
	WSums     []float64
	Sums      []float64
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
	r := wireReader{b: data}
	r.checkHeader(wireRespMagic, wireFlagCRC)
	out.Weighting = tagviews.Weighting(r.u8())
	out.Records = int(r.uvarint())
	out.Epoch = r.u64()
	nC := r.uvarint()
	if r.err == nil && (nC > wireMaxCountries || nC > uint64(maxC)) {
		r.fail(fmt.Errorf("server: binary frame country count %d exceeds bound %d", nC, maxC))
	}
	nItems := r.uvarint()
	// Each item costs at least 8 bytes (its weight sum), so the
	// remaining length bounds the count as well.
	if r.err == nil && (nItems > uint64(r.remaining()/8+1) || nItems > uint64(maxItems)) {
		r.fail(fmt.Errorf("server: binary frame item count %d exceeds bound %d", nItems, maxItems))
	}
	if r.err != nil {
		return r.err
	}
	out.NC = int(nC)
	out.NItems = int(nItems)
	out.WSums = growFloats(out.WSums, out.NItems)
	out.Sums = growFloats(out.Sums, out.NItems*out.NC)
	for i := 0; i < out.NItems; i++ {
		ws := r.f64()
		if r.err != nil {
			return r.err
		}
		out.WSums[i] = ws
		row := out.Sums[i*out.NC : (i+1)*out.NC]
		if !(ws > 0) {
			// Absent row: zero it so a recycled slab never leaks a
			// previous response's values.
			for c := range row {
				row[c] = 0
			}
			continue
		}
		if r.remaining() < out.NC*8 {
			return errWireTruncated
		}
		for c := range row {
			row[c] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
			r.off += 8
		}
	}
	if r.remaining() > 0 {
		return fmt.Errorf("server: %d trailing bytes after binary response frame", r.remaining())
	}
	return nil
}

// growFloats returns s resized to n, reallocating only when capacity
// falls short.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
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
