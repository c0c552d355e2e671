package bincodec

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// modes runs a read over both inputs: the slice itself, and a source
// that hands the reader one byte per Read, so every primitive takes the
// refill branch.
var modes = []struct {
	name string
	open func([]byte) Reader
}{
	{"slice", NewReader},
	{"source", func(b []byte) Reader { return NewSourceReader(iotest.OneByteReader(bytes.NewReader(b))) }},
}

// primitive is one value a Writer writes and a Reader reads back.
type primitive struct {
	name  string
	write func(w *Writer)
	read  func(r *Reader) any
	want  any
}

var primitives = []primitive{
	{"u8", func(w *Writer) { w.U8(0xab) }, func(r *Reader) any { return r.U8() }, byte(0xab)},
	{"u16", func(w *Writer) { w.U16(0xabcd) }, func(r *Reader) any { return r.U16() }, uint16(0xabcd)},
	{"u32", func(w *Writer) { w.U32(0xdeadbeef) }, func(r *Reader) any { return r.U32() }, uint32(0xdeadbeef)},
	{"u64", func(w *Writer) { w.U64(1 << 60) }, func(r *Reader) any { return r.U64() }, uint64(1 << 60)},
	{"f64", func(w *Writer) { w.F64(-2.5) }, func(r *Reader) any { return r.F64() }, -2.5},
	{"uvarint", func(w *Writer) { w.Uvarint(300) }, func(r *Reader) any { return r.Uvarint() }, uint64(300)},
	{"varint", func(w *Writer) { w.Varint(-300) }, func(r *Reader) any { return r.Varint() }, int64(-300)},
	{"count", func(w *Writer) { w.Uvarint(2); w.U16(0) }, func(r *Reader) any {
		n := r.Count("x", 2, 1)
		r.Bytes(n) // its elements
		return n
	}, 2},
	{"str", func(w *Writer) { w.Str("hello") }, func(r *Reader) any { return r.Str(5) }, "hello"},
	{"bytes", func(w *Writer) { w.B = append(w.B, "abcd"...) }, func(r *Reader) any { return string(r.Bytes(4)) }, "abcd"},
	{"f64s", func(w *Writer) { w.F64s([]float64{1, 2, 3}) }, func(r *Reader) any {
		out := make([]float64, 3)
		r.F64s(out)
		return out[2]
	}, 3.0},
	{"f64rows", func(w *Writer) { w.F64s([]float64{1, 2, 3, 4}) }, func(r *Reader) any {
		if rows := r.F64Rows(2, 2); r.Err() == nil {
			return rows[1][1]
		}
		return nil
	}, 4.0},
}

// TestReaderRefusals is the reader's refusal table, over a slice and
// over a source: every primitive cut short anywhere, overlong varints,
// a count past its maximum or (over a slice) past the bytes left, and a
// string past its maximum. Nothing refused allocates by its claim.
func TestReaderRefusals(t *testing.T) {
	type row struct {
		name string
		in   []byte
		read func(r *Reader)
		// okFrom says the source mode accepts what the slice refuses: a
		// count past the bytes left, which a source cannot know.
		okFrom bool
	}
	var rows []row
	for _, p := range primitives {
		var w Writer
		p.write(&w)
		for n := 0; n < len(w.B); n++ {
			read := p.read
			rows = append(rows, row{name: p.name + "/truncated", in: w.B[:n], read: func(r *Reader) { read(r) }})
		}
	}
	uvarint := func(r *Reader) { r.Uvarint() }
	varint := func(r *Reader) { r.Varint() }
	rows = append(rows,
		row{"uvarint/overlong-zero", []byte{0x80, 0x00}, uvarint, false},
		row{"uvarint/overlong-three", []byte{0x83, 0x00}, uvarint, false},
		row{"uvarint/overflow", bytes.Repeat([]byte{0xff}, 10), uvarint, false},
		row{"varint/overlong", []byte{0x80, 0x80, 0x00}, varint, false},
		row{"varint/overlong-negative", []byte{0x81, 0x00}, varint, false},
		row{"count/past-max", []byte{11}, func(r *Reader) { r.Count("x", 10, 0) }, false},
		row{"count/past-budget", []byte{3, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count("x", 100, 4) }, true},
		row{"count/huge", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, func(r *Reader) { r.Count("x", math.MaxInt, 1) }, true},
		row{"str/past-max", []byte("\x05hello"), func(r *Reader) { r.Str(4) }, false},
		row{"str/huge", []byte{0xff, 0xff, 0xff, 0x7f, 'x'}, func(r *Reader) { r.Str(math.MaxInt) }, false},
	)
	for _, m := range modes {
		for _, tc := range rows {
			r := m.open(tc.in)
			allocs := allocated(func() { tc.read(&r) })
			wantErr := !(tc.okFrom && m.name == "source")
			if (r.Err() != nil) != wantErr {
				t.Errorf("%s %s % x: err %v, want an error: %v", m.name, tc.name, tc.in, r.Err(), wantErr)
			}
			if allocs > 256<<10 {
				t.Errorf("%s %s: allocated %d bytes", m.name, tc.name, allocs)
			}
		}
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReaderRoundTrip: whatever a Writer writes, both inputs read back
// value for value, the largest uvarint included, and Sum is the CRC of
// exactly the bytes consumed. The source here is larger than the window
// and hands out uneven pieces, so reads straddle refills and a string
// longer than the window is taken straight from the source.
func TestReaderRoundTrip(t *testing.T) {
	var w Writer
	long := strings.Repeat("x", 3*sourceWindow/2)
	for i := 0; i < 2000; i++ {
		for _, p := range primitives {
			p.write(&w)
		}
		w.Uvarint(math.MaxUint64)
		w.Varint(math.MinInt64)
		if i == 1000 {
			w.Str(long)
		}
	}
	w.CRC(0)
	for _, m := range []struct {
		name string
		open func([]byte) Reader
	}{
		{"slice", NewReader},
		{"source", func(b []byte) Reader { return NewSourceReader(iotest.HalfReader(bytes.NewReader(b))) }},
	} {
		r := m.open(w.B)
		for i := 0; i < 2000 && r.Err() == nil; i++ {
			for _, p := range primitives {
				if got := p.read(&r); r.Err() == nil && !equal(got, p.want) {
					t.Fatalf("%s: %s read %v, want %v", m.name, p.name, got, p.want)
				}
			}
			if v := r.Uvarint(); v != math.MaxUint64 {
				t.Fatalf("%s: max uvarint read %d", m.name, v)
			}
			if v := r.Varint(); v != math.MinInt64 {
				t.Fatalf("%s: min varint read %d", m.name, v)
			}
			if i == 1000 && r.Str(len(long)) != long {
				t.Fatalf("%s: long string garbled", m.name)
			}
		}
		sum := r.Sum()
		if stored := r.U32(); r.Err() != nil || stored != sum || sum != crc32.ChecksumIEEE(w.B[:len(w.B)-4]) {
			t.Fatalf("%s: stored %08x, summed %08x (%v)", m.name, stored, sum, r.Err())
		}
		if r.U8(); !errors.Is(r.Err(), errTruncated) {
			t.Fatalf("%s: read past the end: %v", m.name, r.Err())
		}
	}
}

func equal(a, b any) bool { return a == b }

// TestSliceFrameRules: a CRC trailer is verified and cut off, and bytes
// left over after a frame are refused.
func TestSliceFrameRules(t *testing.T) {
	w := Writer{B: []byte("hdr")}
	w.Str("body")
	w.CRC(3)
	r := NewReader(w.B)
	r.Bytes(3)
	r.CutCRC()
	if s := r.Str(4); s != "body" || r.End() != nil {
		t.Fatalf("framed body read %q (%v)", s, r.Err())
	}
	bad := bytes.Clone(w.B)
	bad[4] ^= 1
	r = NewReader(bad)
	r.Bytes(3)
	if r.CutCRC(); r.Err() == nil {
		t.Fatal("a flipped byte passed the CRC")
	}
	r = NewReader([]byte{1, 2})
	if r.U8(); r.End() == nil {
		t.Fatal("a trailing byte passed End")
	}
	if rest := NewReader([]byte{1, 2}); string(rest.Bytes(1)) != "\x01" || string(rest.Rest()) != "\x02" || rest.End() != nil {
		t.Fatal("Rest did not consume the tail")
	}
}

// errSource fails every read.
type errSource struct{}

func (errSource) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestSourceErrorsPassThrough: a read error that is not the end of input
// reaches the caller as itself.
func TestSourceErrorsPassThrough(t *testing.T) {
	r := NewSourceReader(errSource{})
	if r.U64(); !errors.Is(r.Err(), io.ErrClosedPipe) {
		t.Fatalf("err %v, want the source's", r.Err())
	}
}

// FuzzReader: over the same bytes, a slice and a one-byte-at-a-time
// source read the same values and meet the same first error, neither
// allocates by a claim, and whatever both read re-encodes to exactly
// the bytes consumed (each value has one encoding), whose CRC both sums
// report.
func FuzzReader(f *testing.F) {
	var w Writer
	w.U8(7)
	w.Uvarint(300)
	w.Str("pop")
	w.Varint(-3)
	w.F64s([]float64{0.5, 2})
	f.Add([]byte{0, 4, 6, 5, 8, 2, 9}, w.B)
	f.Add([]byte{4, 4}, []byte{0x80, 0x00, 0x83, 0x00})
	f.Add([]byte{9, 6}, []byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, prog, data []byte) {
		type step struct {
			v   any
			err error
		}
		run := func(r *Reader, w *Writer) (steps []step) {
			for _, op := range prog {
				var v any
				switch op % 10 {
				case 0:
					x := r.U8()
					w.U8(x)
					v = x
				case 1:
					x := r.U16()
					w.U16(x)
					v = x
				case 2:
					x := r.U32()
					w.U32(x)
					v = x
				case 3:
					x := r.U64()
					w.U64(x)
					v = x
				case 4:
					x := r.Uvarint()
					w.Uvarint(x)
					v = x
				case 5:
					x := r.Varint()
					w.Varint(x)
					v = x
				case 6:
					x := r.Str(64)
					w.Str(x)
					v = x
				case 7:
					x := string(r.Bytes(int(op / 10)))
					w.B = append(w.B, x...)
					v = x
				case 8:
					x := make([]float64, 2)
					r.F64s(x)
					w.F64s(x)
					v = [2]uint64{math.Float64bits(x[0]), math.Float64bits(x[1])}
				case 9:
					x := r.Count("x", 1000, 0)
					w.Uvarint(uint64(x))
					v = x
				}
				steps = append(steps, step{v, r.Err()})
				if r.Err() != nil {
					break
				}
			}
			return steps
		}
		var ws, wsrc Writer
		sr := NewReader(data)
		src := NewSourceReader(iotest.OneByteReader(bytes.NewReader(data)))
		var a, b []step
		if n := allocated(func() { a = run(&sr, &ws) }); n > 64<<10+64*uint64(len(data)+len(prog)) {
			t.Fatalf("slice read of %d bytes allocated %d", len(data), n)
		}
		if n := allocated(func() { b = run(&src, &wsrc) }); n > sourceWindow+64<<10+64*uint64(len(data)+len(prog)) {
			t.Fatalf("source read of %d bytes allocated %d", len(data), n)
		}
		if len(a) != len(b) {
			t.Fatalf("slice took %d steps, source %d", len(a), len(b))
		}
		for i := range a {
			if a[i].v != b[i].v || (a[i].err == nil) != (b[i].err == nil) || a[i].err != nil && a[i].err.Error() != b[i].err.Error() {
				t.Fatalf("step %d (op %d): slice %v (%v), source %v (%v)", i, prog[i], a[i].v, a[i].err, b[i].v, b[i].err)
			}
		}
		if sr.Err() != nil {
			return
		}
		sliceSum, srcSum := sr.Sum(), src.Sum()
		consumed := data[:len(data)-len(sr.Rest())]
		if !bytes.Equal(ws.B, consumed) {
			t.Fatalf("re-encoded % x, consumed % x", ws.B, consumed)
		}
		if sum := crc32.ChecksumIEEE(consumed); sliceSum != sum || srcSum != sum {
			t.Fatalf("sums %08x / %08x, want %08x", sliceSum, srcSum, sum)
		}
	})
}
