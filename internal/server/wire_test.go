package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"viewstags/internal/bincodec"
	"viewstags/internal/ingest"
	"viewstags/internal/tagviews"
)

// TestWireRequestGoldenBytes pins the request frame layout byte for
// byte: the codec is a cross-process contract, so an accidental layout
// change must fail a test, not surface as gateway↔shard garbage after
// a partial redeploy.
func TestWireRequestGoldenBytes(t *testing.T) {
	got := AppendPredictRequest(nil, [][]string{{"a", "bb"}, {"ccc"}}, tagviews.WeightIDF, false)
	want := []byte{
		'V', 'T', 'I', 'P', 'R', 'Q', '0', '1', // magic
		0,      // flags: no CRC
		3,      // weighting byte (WeightIDF)
		2,      // nItems
		2,      // item 0: nTags
		1, 'a', // tag "a"
		2, 'b', 'b', // tag "bb"
		1,                // item 1: nTags
		3, 'c', 'c', 'c', // tag "ccc"
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("request frame mismatch:\n got %v\nwant %v", got, want)
	}

	// The CRC variant appends exactly a flags flip and the IEEE
	// checksum of everything after the flags byte.
	withCRC := AppendPredictRequest(nil, [][]string{{"a", "bb"}, {"ccc"}}, tagviews.WeightIDF, true)
	if withCRC[8] != 1 {
		t.Fatalf("CRC frame flags byte %d, want 1", withCRC[8])
	}
	body := withCRC[9 : len(withCRC)-4]
	wantSum := crc32.ChecksumIEEE(body)
	if gotSum := binary.LittleEndian.Uint32(withCRC[len(withCRC)-4:]); gotSum != wantSum {
		t.Fatalf("CRC trailer %08x, want %08x", gotSum, wantSum)
	}
}

// TestWireResponseGoldenBytes pins the response frame layout.
func TestWireResponseGoldenBytes(t *testing.T) {
	var enc PredictWireEncoder
	enc.begin(tagviews.WeightUniform, ShardVersion{Incarnation: 0x0102030405060708, Epoch: 9, Records: 5}, 2, 2, false, 0)
	enc.Item(0, nil)                     // unknown item: weight sum only
	enc.Item(1.5, []float64{0.25, 0.75}) // known item: wsum + raw slab
	got := enc.Finish()

	var want bytes.Buffer
	want.WriteString("VTIPRS03")
	want.WriteByte(0)                                                        // flags
	want.WriteByte(1)                                                        // weighting byte (WeightUniform)
	_ = binary.Write(&want, binary.LittleEndian, uint64(0x0102030405060708)) // incarnation
	_ = binary.Write(&want, binary.LittleEndian, uint64(9))                  // epoch
	want.WriteByte(5)                                                        // records uvarint
	want.WriteByte(2)                                                        // nC
	want.WriteByte(2)                                                        // nItems
	_ = binary.Write(&want, binary.LittleEndian, float64(0))
	_ = binary.Write(&want, binary.LittleEndian, float64(1.5))
	_ = binary.Write(&want, binary.LittleEndian, float64(0.25))
	_ = binary.Write(&want, binary.LittleEndian, float64(0.75))
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("response frame mismatch:\n got %v\nwant %v", got, want.Bytes())
	}
}

// TestWireRowsGoldenBytes pins the rows layout byte for byte: a
// gateway's row fetch for two tags, and a reply with a known row, an
// absent row and a row no video carries. Neither frame has a weighting
// byte; a row is the tag's view total, video count and per-country sums,
// which total it exactly, and an absent row its view total alone.
func TestWireRowsGoldenBytes(t *testing.T) {
	got := AppendRowsRequest(nil, []string{"a", "bb"})
	want := []byte{
		'V', 'T', 'I', 'P', 'R', 'Q', '0', '1', // magic
		4,         // flags: rows
		2,         // nItems
		1, 1, 'a', // item 0: one tag, "a"
		1, 2, 'b', 'b', // item 1: one tag, "bb"
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rows request mismatch:\n got %v\nwant %v", got, want)
	}
	items, w, flags, err := decodePredictRequest(want, 2)
	if err != nil || w != tagviews.WeightingInvalid || flags != wireFlagRows ||
		!reflect.DeepEqual(items, [][]string{{"a"}, {"bb"}}) {
		t.Fatalf("rows request decode: %v: weighting %v flags %#x items %q", err, w, flags, items)
	}

	var enc PredictWireEncoder
	enc.BeginRows(ShardVersion{Incarnation: 0x0102030405060708, Epoch: 9, Records: 5}, 2, 3, false)
	enc.Row(2.5, 3, []float64{0.625, 1.875}) // known row
	enc.Row(0, 0, nil)                       // absent row: views only
	enc.Row(4, 0, []float64{4, 0})           // views, but no video carries it
	wantResp := []byte{
		'V', 'T', 'I', 'P', 'R', 'S', '0', '3', // magic
		4,                      // flags: rows
		8, 7, 6, 5, 4, 3, 2, 1, // incarnation u64
		9, 0, 0, 0, 0, 0, 0, 0, // epoch u64
		5,                            // records uvarint
		2,                            // nC
		3,                            // nItems
		0, 0, 0, 0, 0, 0, 0x04, 0x40, // row 0: views 2.5
		3,                            // videos
		0, 0, 0, 0, 0, 0, 0xe4, 0x3f, // 0.625
		0, 0, 0, 0, 0, 0, 0xfe, 0x3f, // 1.875
		0, 0, 0, 0, 0, 0, 0, 0, // row 1: views 0, absent
		0, 0, 0, 0, 0, 0, 0x10, 0x40, // row 2: views 4
		0,                            // videos
		0, 0, 0, 0, 0, 0, 0x10, 0x40, // 4
		0, 0, 0, 0, 0, 0, 0, 0, // 0
	}
	if got := enc.Finish(); !bytes.Equal(got, wantResp) {
		t.Fatalf("rows response mismatch:\n got %v\nwant %v", got, wantResp)
	}
	pp := PredictPartials{Videos: []int{7, 7, 7}}
	if err := DecodePredictResponse(wantResp, &pp, 3, 2); err != nil || !pp.Rows || pp.Weighting != tagviews.WeightingInvalid ||
		pp.Version != (ShardVersion{Incarnation: 0x0102030405060708, Epoch: 9, Records: 5}) || !reflect.DeepEqual(pp.WSums, []float64{2.5, 0, 4}) ||
		pp.Videos[0] != 3 || pp.Videos[2] != 0 || !reflect.DeepEqual(pp.Sums, []float64{0.625, 1.875, 0, 0, 4, 0}) {
		t.Fatalf("rows response decode: %v: %+v", err, pp)
	}

	// A count past the 32 bits a cached row keeps is refused, in the
	// header and in a row.
	for name, frame := range map[string]func(*PredictWireEncoder){
		"records": func(e *PredictWireEncoder) {
			e.BeginRows(ShardVersion{Epoch: 9, Records: 1 << 32}, 2, 1, false)
			e.Row(1, 1, []float64{1, 0})
		},
		"videos": func(e *PredictWireEncoder) {
			e.BeginRows(ShardVersion{Epoch: 9, Records: 5}, 2, 1, false)
			e.Row(1, 1<<32, []float64{1, 0})
		},
	} {
		frame(&enc)
		if err := DecodePredictResponse(enc.Finish(), &pp, 1, 2); err == nil {
			t.Fatalf("rows reply with %s 2^32 decoded", name)
		}
	}
}

// TestInternalIngestGoldenBytes pins the /internal/ingest body and ack
// byte for byte. The body is the batch encoding a WAL record carries
// after its generation (persist's TestWALRecordGoldenBytes pins that
// side), so this also pins what gateway and shard exchange.
func TestInternalIngestGoldenBytes(t *testing.T) {
	events := []ingest.Event{{Video: "v1", Tags: []string{"a", "bc"}, Country: 3, Views: 1.5, Upload: true}}
	uploads := []string{"u2"}
	var body bincodec.Writer
	ingest.AppendBatch(&body, events, uploads)
	want := []byte{
		1,           // nEvents
		2, 'v', '1', // video
		2,      // nTags
		1, 'a', // tag "a"
		2, 'b', 'c', // tag "bc"
		3,                            // country id
		0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // views 1.5
		1,           // upload flag
		1,           // nUploads
		2, 'u', '2', // bare upload announcement
	}
	if !bytes.Equal(body.B, want) {
		t.Fatalf("ingest body mismatch:\n got %v\nwant %v", body.B, want)
	}
	r := bincodec.NewReader(want)
	gotEvents, gotUploads := ingest.ReadBatch(&r, 1)
	if err := r.End(); err != nil || !reflect.DeepEqual(gotEvents, events) || !reflect.DeepEqual(gotUploads, uploads) {
		t.Fatalf("ingest body decode: %v: %+v %q", err, gotEvents, gotUploads)
	}

	ack := IngestAck{Accepted: 2, Version: ShardVersion{Incarnation: 0x0102030405060708, Epoch: 300, Records: 40}, Pending: 5}
	wantAck := []byte{
		2,                      // accepted uvarint
		8, 7, 6, 5, 4, 3, 2, 1, // incarnation u64
		0x2c, 1, 0, 0, 0, 0, 0, 0, // epoch u64 (300)
		40, // records uvarint
		10, // pending zig-zag varint (5)
	}
	if got := appendIngestAck(nil, &ack); !bytes.Equal(got, wantAck) {
		t.Fatalf("ingest ack mismatch:\n got %v\nwant %v", got, wantAck)
	}
	var back IngestAck
	if err := DecodeIngestAck(wantAck, &back); err != nil || back != ack {
		t.Fatalf("ingest ack decode: %v: %+v", err, back)
	}
}

func TestWireRequestRoundTrip(t *testing.T) {
	cases := [][][]string{
		{{"pop"}},
		{{"a", "bb", "ccc"}, {"dd"}, {"e", "f"}},
		{{"samba", "favela"}, {"日本語", "tag with spaces", ""}},
	}
	for _, crc := range []bool{false, true} {
		for ci, items := range cases {
			for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
				frame := AppendPredictRequest(nil, items, w, crc)
				gotItems, gotW, gotCRC, err := DecodePredictRequest(frame)
				if err != nil {
					t.Fatalf("case %d crc=%v: %v", ci, crc, err)
				}
				if gotW != w || gotCRC != crc {
					t.Fatalf("case %d: weighting %v crc %v, want %v %v", ci, gotW, gotCRC, w, crc)
				}
				if len(gotItems) != len(items) {
					t.Fatalf("case %d: %d items, want %d", ci, len(gotItems), len(items))
				}
				for i := range items {
					if len(gotItems[i]) != len(items[i]) {
						t.Fatalf("case %d item %d: %d tags, want %d", ci, i, len(gotItems[i]), len(items[i]))
					}
					for j := range items[i] {
						if gotItems[i][j] != items[i][j] {
							t.Fatalf("case %d item %d tag %d: %q, want %q", ci, i, j, gotItems[i][j], items[i][j])
						}
					}
				}
			}
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	const nC = 7
	wsums := []float64{0, 2.5, 0.125, 0}
	vecs := make([][]float64, len(wsums))
	for i, ws := range wsums {
		if ws == 0 {
			continue
		}
		vecs[i] = make([]float64, nC)
		for c := range vecs[i] {
			vecs[i][c] = float64(i*nC+c) / 3
		}
	}
	for _, crc := range []bool{false, true} {
		var enc PredictWireEncoder
		enc.Begin(tagviews.WeightIDF, 12345, 42, nC, len(wsums), crc)
		for i, ws := range wsums {
			enc.Item(ws, vecs[i])
		}
		frame := enc.Finish()

		// Decode into a dirty reused value: absent rows must come back
		// zeroed, not holding the previous response's floats.
		pp := PredictPartials{
			WSums: []float64{9, 9, 9, 9, 9, 9},
			Sums:  bytes9(6 * nC),
		}
		if err := DecodePredictResponse(frame, &pp, 64, 1<<12); err != nil {
			t.Fatalf("crc=%v: %v", crc, err)
		}
		if pp.Version != (ShardVersion{Epoch: 42, Records: 12345}) || pp.NC != nC || pp.NItems != len(wsums) || pp.Weighting != tagviews.WeightIDF {
			t.Fatalf("header round-trip: %+v", pp)
		}
		for i, ws := range wsums {
			if pp.WSums[i] != ws {
				t.Fatalf("item %d wsum %v, want %v", i, pp.WSums[i], ws)
			}
			row := pp.Sums[i*nC : (i+1)*nC]
			for c := range row {
				want := 0.0
				if vecs[i] != nil {
					want = vecs[i][c]
				}
				if row[c] != want {
					t.Fatalf("item %d country %d: %v, want %v (stale slab leak?)", i, c, row[c], want)
				}
			}
		}
	}
}

// bytes9 builds a poison slab for reuse tests.
func bytes9(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 9
	}
	return s
}

// Frames with flags bit 1, which once announced a shard exclusion list
// and is now unassigned: a plain request over an empty list (and no
// items), and the gateway's rows request for "a" and "bb" with shard 1
// excluded. Both are refused as carrying unknown flag bits.
const (
	emptyExcludeFrame = "VTIPRQ01\x02\x02\x00\x00"
	rowsExcludeFrame  = "VTIPRQ01\x06\x01\x01\x02\x01\x01a\x01\x02bb"
)

// TestWireDecodeRejectsCorruption: truncations, bad magic, bad CRC,
// trailing garbage and absurd counts must all error — never panic,
// never allocate by the corrupt count.
func TestWireDecodeRejectsCorruption(t *testing.T) {
	items := [][]string{{"a", "bb"}, {"ccc"}}
	req := AppendPredictRequest(nil, items, tagviews.WeightIDF, true)
	var enc PredictWireEncoder
	enc.Begin(tagviews.WeightIDF, 5, 9, 3, 1, true)
	enc.Item(1, []float64{1, 2, 3})
	resp := append([]byte(nil), enc.Finish()...)

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(req); n++ {
			if _, _, _, err := DecodePredictRequest(req[:n]); err == nil {
				t.Fatalf("request truncated to %d bytes decoded", n)
			}
		}
		var pp PredictPartials
		for n := 0; n < len(resp); n++ {
			if err := DecodePredictResponse(resp[:n], &pp, 64, 1<<12); err == nil {
				t.Fatalf("response truncated to %d bytes decoded", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), req...)
		bad[0] = 'X'
		if _, _, _, err := DecodePredictRequest(bad); err == nil {
			t.Fatal("request with corrupt magic decoded")
		}
		// Frames must not cross-decode.
		var pp PredictPartials
		if err := DecodePredictResponse(req, &pp, 64, 1<<12); err == nil {
			t.Fatal("request frame decoded as a response")
		}
	})
	t.Run("bad crc", func(t *testing.T) {
		for _, frame := range [][]byte{req, resp} {
			bad := append([]byte(nil), frame...)
			bad[len(bad)-10] ^= 0xff
			var pp PredictPartials
			reqErr := func() error { _, _, _, err := DecodePredictRequest(bad); return err }
			respErr := func() error { return DecodePredictResponse(bad, &pp, 64, 1<<12) }
			if bytes.HasPrefix(frame, wireReqMagic) {
				if reqErr() == nil {
					t.Fatal("flipped byte passed the request CRC")
				}
			} else if respErr() == nil {
				t.Fatal("flipped byte passed the response CRC")
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		plain := AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		if _, _, _, err := DecodePredictRequest(append(plain, 0xAA)); err == nil {
			t.Fatal("request with trailing garbage decoded")
		}
	})
	t.Run("bad weighting", func(t *testing.T) {
		bad := AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		bad[9] = 77
		if _, _, _, err := DecodePredictRequest(bad); err == nil {
			t.Fatal("request with invalid weighting byte decoded")
		}
	})
	t.Run("unknown flag bits", func(t *testing.T) {
		// Fuzz-found: a flags byte with bits beyond CRC must be refused
		// (a future layout), not silently decoded modulo the bits.
		bad := AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		bad[8] = 0x30
		if _, _, _, err := DecodePredictRequest(bad); err == nil {
			t.Fatal("request with unknown flag bits decoded")
		}
	})
	t.Run("rows item of other than one tag", func(t *testing.T) {
		// A rows reply answers one row per item: a frame that asks for
		// a mixture under the bit, or for nothing, is refused.
		for name, tags := range map[string][]string{"two tags": {"a", "bb"}, "no tag": {}} {
			// The plain frame under the rows bit, less its weighting byte.
			plain := AppendPredictRequest(nil, [][]string{{"ccc"}, tags}, tagviews.WeightIDF, false)
			bad := append(append(plain[:8:8], plain[8]|wireFlagRows), plain[10:]...)
			if _, _, _, err := decodePredictRequest(bad, math.MaxInt); err == nil {
				t.Fatalf("rows request with a %s item decoded", name)
			}
		}
	})
	t.Run("exclusion flag over an empty list", func(t *testing.T) {
		// Flags bit 1, the retired exclusion flag, is an unknown bit: an
		// old frame, over an empty list or a real one, is refused, never
		// read as a request without its list.
		for _, frame := range []string{emptyExcludeFrame, rowsExcludeFrame} {
			if _, _, _, err := decodePredictRequest([]byte(frame), math.MaxInt); err == nil || !strings.Contains(err.Error(), "unknown bits") {
				t.Fatalf("request with flags bit 1 %q: %v, want an unknown-bits refusal", frame, err)
			}
		}
	})
	t.Run("non-canonical varint", func(t *testing.T) {
		// Fuzz-found: the codec must be bijective, so an over-long
		// varint (0x80 0x00 spelling zero in two bytes) is an error.
		bad := []byte("VTIPRQ01\x00\x01\x80\x00")
		if _, _, _, err := DecodePredictRequest(bad); err == nil {
			t.Fatal("request with a non-canonical varint decoded")
		}
	})
	t.Run("absurd counts", func(t *testing.T) {
		// nItems claiming more items than there are bytes left.
		w := bincodec.Writer{B: append([]byte(nil), wireReqMagic...)}
		w.U8(0)
		w.U8(byte(tagviews.WeightIDF))
		w.Uvarint(1 << 40)
		if _, _, _, err := DecodePredictRequest(w.B); err == nil {
			t.Fatal("request with absurd item count decoded")
		}
		// Response claiming a country table beyond the sanity bound.
		w = bincodec.Writer{B: append([]byte(nil), wireRespMagic...)}
		w.U8(0)
		w.U8(byte(tagviews.WeightIDF))
		w.Uvarint(1)
		w.U64(0)
		w.Uvarint(1 << 30) // nC
		w.Uvarint(1)
		var pp PredictPartials
		if err := DecodePredictResponse(w.B, &pp, 64, 1<<12); err == nil {
			t.Fatal("response with absurd country count decoded")
		}
	})
	t.Run("caller shape bounds", func(t *testing.T) {
		// A structurally valid frame whose claimed shape exceeds what
		// the caller expects must error before the nItems×nC slab is
		// sized: zero-weight items cost 8 wire bytes each but a full
		// slab row, so without the caller's bound a kilobyte frame
		// could demand a gigabyte allocation.
		var enc PredictWireEncoder
		enc.Begin(tagviews.WeightIDF, 1, 0, 8, 2, false)
		enc.Item(0, nil)
		enc.Item(0, nil)
		frame := append([]byte(nil), enc.Finish()...)
		var pp PredictPartials
		if err := DecodePredictResponse(frame, &pp, 64, 4); err == nil {
			t.Fatal("country count beyond the caller bound decoded")
		}
		if err := DecodePredictResponse(frame, &pp, 1, 64); err == nil {
			t.Fatal("item count beyond the caller bound decoded")
		}
		if err := DecodePredictResponse(frame, &pp, 2, 8); err != nil {
			t.Fatalf("frame at exactly the caller bounds refused: %v", err)
		}
	})
}

// TestWireNaNWeightSum: a NaN weight sum must not be treated as a
// present vector on either side of the wire.
func TestWireNaNWeightSum(t *testing.T) {
	var enc PredictWireEncoder
	enc.Begin(tagviews.WeightIDF, 1, 0, 2, 1, false)
	enc.Item(math.NaN(), nil) // NaN > 0 is false: no slab follows
	frame := enc.Finish()
	var pp PredictPartials
	if err := DecodePredictResponse(frame, &pp, 64, 1<<12); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(pp.WSums[0]) {
		t.Fatalf("wsum %v, want NaN", pp.WSums[0])
	}
	for _, x := range pp.Sums[:pp.NC] {
		if x != 0 {
			t.Fatalf("NaN item carried a vector: %v", pp.Sums[:pp.NC])
		}
	}
}

// FuzzInternalCodec: decoding arbitrary bytes as any internal frame kind
// — predict request and response, ingest body and ack — must never
// panic, and every frame the encoder produces must decode back
// losslessly (the round-trip property is checked whenever the fuzzer's
// input parses).
func FuzzInternalCodec(f *testing.F) {
	f.Add(AppendPredictRequest(nil, [][]string{{"a", "bb"}, {"ccc"}}, tagviews.WeightIDF, false))
	f.Add(AppendPredictRequest(nil, [][]string{{"pop", "rock"}}, tagviews.WeightUniform, true))
	var enc PredictWireEncoder
	enc.Begin(tagviews.WeightByViews, 3, 1, 2, 2, true)
	enc.Item(0, nil)
	enc.Item(0.5, []float64{0.5, 0.5})
	f.Add(append([]byte(nil), enc.Finish()...))
	f.Add([]byte("VTIPRQ01"))
	f.Add(appendPredictRequest(nil, nil, []string{"pop"}, 0, true))
	f.Add(AppendRowsRequest(nil, []string{"pop", "rock"}))
	// A known, an absent and a zero-video row, under a version whose
	// incarnation is a wall-clock reading as a shard draws it.
	enc.BeginRows(ShardVersion{Incarnation: 1_760_000_000_123_456_789, Epoch: 1, Records: 3}, 2, 3, false)
	enc.Row(1.5, 2, []float64{0.25, 0.75})
	enc.Row(0, 0, nil)
	enc.Row(4, 0, []float64{1, 0})
	f.Add(append([]byte(nil), enc.Finish()...))
	f.Add([]byte(emptyExcludeFrame))
	f.Add([]byte(rowsExcludeFrame))
	f.Add([]byte("VTIPRS01\x00\x03"))
	f.Add([]byte("VTIPRS03\x04\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\x02\x00"))
	var body bincodec.Writer
	ingest.AppendBatch(&body, []ingest.Event{{Video: "v", Tags: []string{"a", "bc"}, Country: 3, Views: 1.5, Upload: true}}, []string{"u"})
	f.Add(body.B)
	f.Add(appendIngestAck(nil, &IngestAck{Accepted: 2, Version: ShardVersion{Incarnation: 7, Epoch: 300, Records: 40}, Pending: 5}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// No decoder may panic or over-allocate on arbitrary input.
		items, w, flags, err := decodePredictRequest(data, math.MaxInt)
		if err == nil {
			// Whatever decoded must re-encode to the identical frame:
			// decode∘encode is the identity on the codec's image.
			var rows []string
			if flags&wireFlagRows != 0 {
				rows = make([]string, len(items))
				for i, tags := range items {
					rows[i] = tags[0]
				}
				items = nil
			}
			again := appendPredictRequest(nil, items, rows, w, flags&wireFlagCRC != 0)
			if !bytes.Equal(again, data) {
				t.Fatalf("request re-encode mismatch:\n in  %v\n out %v", data, again)
			}
		}
		var pp PredictPartials
		if err := DecodePredictResponse(data, &pp, 64, 1<<12); err == nil {
			var enc PredictWireEncoder
			enc.begin(pp.Weighting, pp.Version, pp.NC, pp.NItems, false, data[8]&wireFlagRows)
			for i := 0; i < pp.NItems; i++ {
				if vec := pp.Sums[i*pp.NC : (i+1)*pp.NC]; pp.Rows {
					enc.Row(pp.WSums[i], pp.Videos[i], vec)
				} else {
					enc.Item(pp.WSums[i], vec)
				}
			}
			// Round-trip equality is only exact for CRC-less frames
			// (the decoder strips the trailer) and non-NaN weight sums
			// (NaN bit patterns survive but compare unequal); skip the
			// byte comparison otherwise, the no-panic property already
			// held.
			if len(data) > 9 && data[8]&1 == 0 {
				nanFree := true
				for _, ws := range pp.WSums[:pp.NItems] {
					if math.IsNaN(ws) {
						nanFree = false
						break
					}
				}
				if nanFree && !bytes.Equal(enc.Finish(), data) {
					t.Fatalf("response re-encode mismatch:\n in  %v\n out %v", data, enc.Finish())
				}
			}
		}
		// The ingest body and ack: whatever decodes re-encodes to the
		// bytes it consumed.
		r := bincodec.NewReader(data)
		if events, uploads := ingest.ReadBatch(&r, 64); r.End() == nil {
			var w bincodec.Writer
			ingest.AppendBatch(&w, events, uploads)
			if !bytes.Equal(w.B, data) {
				t.Fatalf("ingest body re-encode mismatch:\n in  %v\n out %v", data, w.B)
			}
		}
		var ack IngestAck
		if DecodeIngestAck(data, &ack) == nil {
			if again := appendIngestAck(nil, &ack); !bytes.Equal(again, data) {
				t.Fatalf("ingest ack re-encode mismatch:\n in  %v\n out %v", data, again)
			}
		}
	})
}
