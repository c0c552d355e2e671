// Package bincodec is the one set of binary primitives under every
// format a daemon writes or reads: the checkpoint and the WAL record
// (internal/persist), the ingest batch a WAL record and an
// /internal/ingest body share (internal/ingest), the /internal/predict
// request and response frames, the ingest ack and the data-plane stream
// envelope (internal/server). Integers are
// little-endian, counts and lengths are uvarints, float64s travel as
// their raw bit patterns.
//
// A Writer appends to a byte slice. A Reader consumes either a byte slice
// (a wire frame, an envelope, a CRC-checked WAL payload) or an io.Reader
// (a checkpoint file or a reshard's HTTP body), which it reads through a
// bounded window, summing the CRC over what it consumes. Both inputs obey
// the same rules, written once here:
//
//   - a uvarint or varint must be canonical (its shortest encoding), so a
//     value has one encoding and whatever decodes re-encodes identically;
//   - a count is refused above its stated maximum, or when its elements,
//     at their minimum encoded size, would outrun the bytes known to be
//     left (a slice input's; a source's are unknown);
//   - a string longer than its stated maximum is refused;
//   - from a source, what a claim would allocate grows as bytes arrive
//     (take, AppendGrown, F64Rows), so a corrupt length fails at the end
//     of input having allocated a small multiple of what the input held,
//     never the size of the corruption.
//
// Errors are sticky: after the first, every read returns a zero value and
// Err reports that first error.
package bincodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

const (
	// sourceWindow is how much of a source a Reader buffers.
	sourceWindow = 64 << 10
	// takeChunk is the most take allocates before the first byte arrives.
	takeChunk = 4 << 10
	// vecChunk is the first chunk F64Rows allocates, in float64s (at
	// least one row); each later chunk holds as many rows as have arrived.
	vecChunk = 8 << 10
)

var errTruncated = errors.New("bincodec: input truncated")

// Writer appends primitives to B.
type Writer struct {
	B []byte
}

func (w *Writer) U8(v byte)        { w.B = append(w.B, v) }
func (w *Writer) U16(v uint16)     { w.B = binary.LittleEndian.AppendUint16(w.B, v) }
func (w *Writer) U32(v uint32)     { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64)     { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) Uvarint(v uint64) { w.B = binary.AppendUvarint(w.B, v) }
func (w *Writer) Varint(v int64)   { w.B = binary.AppendVarint(w.B, v) }
func (w *Writer) F64(v float64)    { w.U64(math.Float64bits(v)) }

// Str appends s with its uvarint length.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.B = append(w.B, s...)
}

// F64s appends v's bit patterns back to back, growing B once.
func (w *Writer) F64s(v []float64) {
	off := len(w.B)
	w.B = append(w.B, make([]byte, 8*len(v))...)
	for _, x := range v {
		binary.LittleEndian.PutUint64(w.B[off:], math.Float64bits(x))
		off += 8
	}
}

// PutU32 overwrites the four bytes at B[at:]: a header whose value is
// known only once what follows it is written.
func (w *Writer) PutU32(at int, v uint32) { binary.LittleEndian.PutUint32(w.B[at:], v) }

// CRC appends the CRC-32 (IEEE) of B[from:].
func (w *Writer) CRC(from int) { w.U32(crc32.ChecksumIEEE(w.B[from:])) }

// Reader consumes primitives from a byte slice (NewReader) or from an
// io.Reader (NewSourceReader). Every read takes its fast path while the
// bytes it needs are in buf; fill, the short-input branch, is the only
// code that consults a source.
type Reader struct {
	// buf[off:] is unread: the whole rest of a slice input, or what the
	// window holds of a source. buf starts at the window's base, whose
	// capacity is the window.
	buf []byte
	off int
	src io.Reader
	err error
	// sum is the CRC-32 of every byte consumed before buf[mark].
	sum  uint32
	mark int
}

// NewReader reads b. Bytes and Rest alias it.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// NewSourceReader reads src through a window of sourceWindow bytes. It
// may read ahead of what it has consumed.
func NewSourceReader(src io.Reader) Reader {
	return Reader{buf: make([]byte, 0, sourceWindow), src: src}
}

// Err is the first error the reader met.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is already recorded. Every later
// read takes the short-input branch, which refuses it.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.buf = r.buf[:r.off]
	}
}

// fill makes n bytes available at buf[off:], refilling the window from
// the source, or fails the reader. n must not exceed the window.
func (r *Reader) fill(n int) bool {
	if r.err != nil {
		return false
	}
	if r.src == nil {
		r.Fail(errTruncated)
		return false
	}
	r.fold()
	k := copy(r.buf[:cap(r.buf)], r.buf[r.off:])
	m, err := io.ReadAtLeast(r.src, r.buf[k:cap(r.buf)], n-k)
	r.buf, r.off, r.mark = r.buf[:k+m], 0, 0
	if err != nil {
		r.Fail(sourceErr(err))
		return false
	}
	return true
}

// sourceErr names the end of a source as truncation and passes any
// other read error through.
func sourceErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTruncated
	}
	return err
}

// fold adds the bytes consumed since the last fold to sum.
func (r *Reader) fold() {
	r.sum = crc32.Update(r.sum, crc32.IEEETable, r.buf[r.mark:r.off])
	r.mark = r.off
}

// Sum is the CRC-32 (IEEE) of every byte consumed so far.
func (r *Reader) Sum() uint32 {
	r.fold()
	return r.sum
}

// zeros is what a fixed-width read returns once the reader has failed.
var zeros [8]byte

// next consumes n ≤ 8 bytes, or returns zeros when they are not there.
func (r *Reader) next(n int) []byte {
	if len(r.buf)-r.off < n && !r.fill(n) {
		return zeros[:n]
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *Reader) U8() byte     { return r.next(1)[0] }
func (r *Reader) U16() uint16  { return binary.LittleEndian.Uint16(r.next(2)) }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.next(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.next(8)) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads a canonical uvarint: no encoder emits a longer spelling
// than the shortest, so a multi-byte one whose last byte is zero (0x80
// 0x00 for 0) is refused.
func (r *Reader) Uvarint() uint64 {
	for {
		v, n := binary.Uvarint(r.buf[r.off:])
		if n > 0 {
			if n > 1 && r.buf[r.off+n-1] == 0 {
				r.Fail(fmt.Errorf("bincodec: non-canonical varint (%d bytes for %d)", n, v))
				return 0
			}
			r.off += n
			return v
		}
		if n < 0 {
			r.Fail(errors.New("bincodec: varint overflows 64 bits"))
			return 0
		}
		if !r.fill(len(r.buf) - r.off + 1) {
			return 0
		}
	}
}

// Varint reads a zig-zag varint, canonical as Uvarint's.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// F64s fills out with consecutive float64s, as many at a time as the
// input holds.
func (r *Reader) F64s(out []float64) {
	for len(out) > 0 && (len(r.buf)-r.off >= 8 || r.fill(8)) {
		k := min(len(out), (len(r.buf)-r.off)/8)
		b := r.buf[r.off : r.off+8*k]
		for i := range out[:k] {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		r.off += 8 * k
		out = out[k:]
	}
}

// F64Rows reads n rows of width float64s. The row table is allocated up
// front, so the caller must already have proved n: by a Count's byte
// budget, or by reading n elements. Bytes prove n and width, not their
// product: the rows' slab is allocated a chunk at a time, each chunk
// holding as many rows as have arrived, so an input cut short fails
// having allocated one chunk, not the product.
func (r *Reader) F64Rows(n, width int) [][]float64 {
	if r.err != nil {
		return nil
	}
	rows := make([][]float64, n)
	var slab []float64
	for i := range rows {
		if len(slab) < width {
			k := min(n-i, max(i, vecChunk/max(width, 1), 1))
			slab = make([]float64, k*width)
		}
		rows[i] = slab[:width:width]
		slab = slab[width:]
		r.F64s(rows[i])
		if r.err != nil {
			break
		}
	}
	return rows
}

// Count reads a uvarint element count. It refuses a count above max,
// and, over a slice, one whose elements at minSize bytes each would
// outrun the bytes left; name says what is counted in the error.
func (r *Reader) Count(name string, max, minSize int) int {
	n := r.Uvarint()
	if n > uint64(max) {
		r.Fail(fmt.Errorf("bincodec: %s count %d exceeds bound %d", name, n, max))
		return 0
	}
	if left := len(r.buf) - r.off; r.src == nil && minSize > 0 && n > uint64(left/minSize) {
		r.Fail(fmt.Errorf("bincodec: %s count %d exceeds the %d bytes left", name, n, left))
		return 0
	}
	return int(n)
}

// Str reads a uvarint-length string of at most max bytes.
func (r *Reader) Str(max int) string {
	n := r.Uvarint()
	if n > uint64(max) {
		r.Fail(fmt.Errorf("bincodec: string length %d exceeds bound %d", n, max))
		return ""
	}
	if len(r.buf)-r.off >= int(n) {
		s := string(r.buf[r.off : r.off+int(n)])
		r.off += int(n)
		return s
	}
	return string(r.Bytes(int(n)))
}

// Bytes reads n raw bytes. Over a slice they alias it; from a source
// they are a fresh slice.
func (r *Reader) Bytes(n int) []byte {
	if r.src != nil {
		return r.take(n)
	}
	if len(r.buf)-r.off < n {
		r.Fail(errTruncated)
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// take reads n bytes from a source into a fresh slice: what the window
// holds, then straight from the source as the bytes arrive.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	have := min(n, len(r.buf)-r.off)
	p := append([]byte(nil), r.buf[r.off:r.off+have]...)
	r.off += have
	r.fold()
	p, err := appendN(p, r.src, n-have)
	r.sum = crc32.Update(r.sum, crc32.IEEETable, p[have:])
	if err != nil {
		r.Fail(sourceErr(err))
		return nil
	}
	return p
}

// ReadN reads n bytes from src into a slice grown as they arrive: a
// length read from a header that promises bytes the source does not
// hold (a torn WAL tail's) fails at the end of input having allocated
// about twice what arrived.
func ReadN(src io.Reader, n int) ([]byte, error) {
	return appendN(nil, src, n)
}

// appendN appends n bytes read from src to p, growing p from takeChunk
// and then doubling, up to what is asked.
func appendN(p []byte, src io.Reader, n int) ([]byte, error) {
	want := len(p) + n
	for len(p) < want {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(want-len(p), max(len(p), takeChunk)))
		}
		k := min(want, cap(p))
		m, err := io.ReadFull(src, p[len(p):k])
		p = p[:len(p)+m]
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// Rest consumes and returns the unread bytes of a slice input.
func (r *Reader) Rest() []byte {
	p := r.buf[r.off:]
	r.off = len(r.buf)
	return p
}

// CutCRC verifies the CRC-32 (IEEE) trailer that ends a slice input
// against the unread bytes before it, and removes it.
func (r *Reader) CutCRC() {
	end := len(r.buf) - 4
	if end < r.off {
		r.Fail(errTruncated)
		return
	}
	stored := binary.LittleEndian.Uint32(r.buf[end:])
	if sum := crc32.ChecksumIEEE(r.buf[r.off:end]); sum != stored {
		r.Fail(fmt.Errorf("bincodec: checksum mismatch (stored %08x, computed %08x)", stored, sum))
		return
	}
	r.buf = r.buf[:end]
}

// End is Err, or an error when a slice input has bytes left over.
func (r *Reader) End() error {
	if r.err == nil && r.off < len(r.buf) {
		r.Fail(fmt.Errorf("bincodec: %d trailing bytes", len(r.buf)-r.off))
	}
	return r.err
}

// AppendGrown appends x, doubling s's capacity when it is full: a slice
// grown to n this way has allocated under 2n in all, where append's
// 1.25× steps for large slices allocate ≈5n. It is for a count whose
// elements take a byte or eight of input each (a checkpoint's country
// codes and prior), where ≈5n would outgrow what the input paid for.
func AppendGrown[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	return append(s, x)
}
