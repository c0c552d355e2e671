package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"viewstags/internal/ingest"
)

// This file and edge_encode.go are the edge codec: hand-written,
// reflection-free JSON for the two hot public routes (/v1/predict,
// /v1/ingest), shared by the node and the gateway. The decoder takes the
// canonical subset of JSON that clients actually send and declines
// everything else — it never reports an error of its own. A declined
// body goes, byte for byte, through the strict encoding/json decode
// every other route uses (decodeStrict), so encoding/json stays the one
// reference for odd input and for every error message. Whenever the fast decoder accepts, its result is
// reflect.DeepEqual to that strict decode (FuzzEdgeDecode holds it to
// that).
//
// Outside the subset, hence declined: a backslash or control byte in a
// string, invalid UTF-8, a key that is not exactly one of the struct's
// JSON names (encoding/json folds case), a duplicate key, null anywhere,
// a `top` that is not a plain unsigned integer, an out-of-range number,
// anything after the closing brace.
//
// Allocation is the other half of the saving: the body becomes ONE Go
// string and every decoded string is a substring of it; all tag lists of
// a request share one backing []string. Substrings of an immutable
// string stay valid for as long as anything holds them, which aliasing
// the pooled byte buffer would not be. A substring keeps its whole body
// alive, though, so code that keeps a decoded string for long copies it
// where it keeps it (the ingest accumulator's maps: strings.Clone at
// first touch).

// maxPooledBody bounds the body buffers that go back to the pool: a
// 4 MB body must not pin 4 MB per pool slot.
const maxPooledBody = 64 << 10

// edgeHintMax bounds the slice capacities pre-sized from byte counts of
// the body, so a body of nothing but quotes or braces cannot amplify
// into a large allocation before it is declined; append grows past it.
const edgeHintMax = 4096

// errTrailingData is the strict decoder's answer to anything but
// whitespace after the JSON value.
var errTrailingData = errors.New("unexpected data after the JSON value")

// decodeStrict is the general decode every JSON route ends in: unknown
// fields are an error, and so is anything but whitespace after the value.
func decodeStrict(src io.Reader, v any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		var syntax *json.SyntaxError
		if err == nil || errors.As(err, &syntax) {
			return errTrailingData
		}
		return err // the read failed (body over the cap) in trailing whitespace
	}
	return nil
}

// readBody reads r's whole body through the MaxBodyBytes cap into a
// pooled buffer sized from Content-Length, so a body costs about its own
// size once. The buffer comes back on error too, holding what arrived;
// hand it to releaseBodyBuf.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := getWireBuf()
	if n := r.ContentLength; n > 0 && n <= MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	return buf, err
}

// releaseBodyBuf returns a body buffer to the pool unless it grew past
// maxPooledBody, and reports which.
func releaseBodyBuf(buf *bytes.Buffer) (pooled bool) {
	if buf.Cap() > maxPooledBody {
		return false
	}
	putWireBuf(buf)
	return true
}

// failingReader replays a body read's error after the bytes that
// arrived before it.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// edgeCodec is one route's half of the edge codec: fast is its fast
// decoder. Its body has one array that -max-batch bounds (predict's batch,
// ingest's events); count is that array's length as encoding/json would
// decode it, and tooMany is the 400 for more than limit, with verbs for
// the count and the limit. tags bounds its items' or events' tag lists.
type edgeCodec[T any] struct {
	fast    func(s string, v *T) bool
	count   func(body []byte) int
	tooMany string
	tags    tagBound
}

var (
	predictCodec = edgeCodec[PredictRequest]{parsePredictRequest, countBatch, "batch of %d exceeds limit %d", tagBound{longPredictTags, tooManyTags}}
	ingestCodec  = edgeCodec[IngestRequest]{parseIngestRequest, countEvents, "batch of %d events exceeds limit %d", tagBound{longEventTags, tooManyEventTags}}
)

// tagBound is a route's bound on a tag list, ingest.MaxEventTags, as
// decodeBuffered applies it before decoding: longest finds the first list
// over it in the first value — its item and length, n = 0 for none — and
// refuse writes the 400 the route's own check would answer for it.
type tagBound struct {
	longest func(body []byte) (item, n int)
	refuse  func(w http.ResponseWriter, item, n int)
}

// decodeEdge reads the whole body through the MaxBodyBytes cap, offers it
// to the fast decoder and, when that declines, to decodeStrict over the
// same bytes (counted in rm, the caller's metric group, so /metrics says
// what share of traffic pays the reflection decoder). A failed read is replayed into
// decodeStrict after the bytes that did arrive, so an over-long or
// truncated body answers what it always has. A batch of more than limit
// elements is refused before either decoder sees the body, ahead of any
// other check on the request. On failure the 400 has been written.
func decodeEdge[T any](w http.ResponseWriter, r *http.Request, rm *RouteMetrics, c edgeCodec[T], limit int, v *T) bool {
	buf, readErr := readBody(w, r)
	defer releaseBodyBuf(buf)
	body := buf.Bytes()
	// An array of more than limit elements needs at least limit commas,
	// and a body with no such array one level down cannot hold a batch
	// over limit: both scans are cheap beside count's reflection. Only the
	// first value is counted, as decodeStrict decodes it before it looks
	// past it; a truncated body fails decodeStrict.
	if readErr == nil && bytes.Count(body, []byte{','}) >= limit {
		if widest, end := widestArray(body, 1); widest > limit {
			if n := c.count(body[:end]); n > limit {
				WriteError(w, http.StatusBadRequest, c.tooMany, n, limit)
				return false
			}
		}
	}
	// A backslash anywhere declines (in a string it is an escape, outside
	// one it is no JSON), and escaping clients are the common declined
	// case: find it before paying the string copy and the scan.
	if readErr == nil && bytes.IndexByte(body, '\\') < 0 && c.fast(buf.String(), v) {
		return true
	}
	rm.DecodeGeneral.Add(1)
	*v = *new(T) // a declined fast decode may have filled some fields
	return decodeBuffered(w, body, readErr, c.tags, v)
}

// decodeBuffered is decodeStrict over a body readBody read, with a failed
// read replayed after the bytes that did arrive. A tag list over
// ingest.MaxEventTags gets the route's own 400 (tags.refuse) before
// decodeStrict would build it, a string header per tag: the lists are
// counted in the first value only, as the batch is, and a body whose
// first value is no valid JSON counts none (decodeStrict says why, having
// found it before decoding). The fast decoder declines such a list at its
// first tag past the bound, so it lands here.
func decodeBuffered(w http.ResponseWriter, body []byte, readErr error, tags tagBound, v any) bool {
	if readErr == nil && bytes.Count(body, []byte{','}) >= ingest.MaxEventTags {
		_, end := widestArray(body, 0)
		if item, n := tags.longest(body[:end]); n > ingest.MaxEventTags {
			tags.refuse(w, item, n)
			return false
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, failingReader{readErr})
	}
	if err := decodeStrict(src, v); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// decodePlaceBody decodes a /v1/place request body into req, as DecodeBody
// would but with its tag list counted first (decodeBuffered). On failure
// the 400 has been written.
func decodePlaceBody(w http.ResponseWriter, r *http.Request, req *PlaceRequest) bool {
	buf, readErr := readBody(w, r)
	defer releaseBodyBuf(buf)
	return decodeBuffered(w, buf.Bytes(), readErr, tagBound{longPlaceTags, tooManyTags}, req)
}

// DecodePredictBody decodes a /v1/predict request body into req; rm is
// the daemon's predict group and maxBatch its batch bound. On failure the
// 400 has been written. The contract decodes through it; it is exported
// for the root benchmarks that price the codec against encoding/json.
func DecodePredictBody(w http.ResponseWriter, r *http.Request, rm *RouteMetrics, maxBatch int, req *PredictRequest) bool {
	return decodeEdge(w, r, rm, predictCodec, maxBatch, req)
}

// elemCount is the length of a JSON array, read by json.Unmarshal without
// decoding an element. A key that appears twice counts its longest array,
// which the strict decoder would hold before the later one replaced it.
type elemCount int

func (c *elemCount) UnmarshalJSON(data []byte) error {
	// data is one valid JSON value; anything but an array (null, a wrong
	// type) counts 0 and is left for the strict decode to accept or refuse.
	n, _ := widestArray(data, 0)
	*c = max(*c, elemCount(n))
	return nil
}

// widestArray scans JSON text up to the end of its first value and
// returns the most elements of any array opened at nesting depth at (0:
// the value itself; 1: the value of a top-level key), and where it
// stopped. On invalid JSON it returns numbers, not answers.
func widestArray(data []byte, at int) (widest, end int) {
	n, depth, inString, inArray := 0, 0, false, false
	for i := 0; i < len(data); i++ {
		ch := data[i]
		if inString {
			if ch == '\\' {
				i++
			} else if ch == '"' {
				inString = false
			}
			continue
		}
		if inArray && depth == at+1 && n == 0 && ch > ' ' && ch != ']' {
			n = 1 // the first element begins
		}
		switch ch {
		case '"':
			inString = true
		case '[', '{':
			if ch == '[' && depth == at {
				inArray, n = true, 0
			}
			depth++
		case ']', '}':
			if depth--; inArray && depth == at {
				widest, inArray = max(widest, n), false
			}
			if depth == 0 {
				return widest, i + 1
			}
		case ',':
			if inArray && depth == at+1 {
				n++
			}
		}
	}
	return widest, len(data)
}

// countBatch and countEvents are the codecs' counts: the elements of the
// array encoding/json would decode into the bounded field, or 0 when the
// body is no valid JSON (decodeStrict says why).
func countBatch(body []byte) int {
	var v struct {
		Batch elemCount `json:"batch"`
	}
	_ = json.Unmarshal(body, &v)
	return int(v.Batch)
}

func countEvents(body []byte) int {
	var v struct {
		Events elemCount `json:"events"`
	}
	_ = json.Unmarshal(body, &v)
	return int(v.Events)
}

// longPredictTags, longPlaceTags and longEventTags are the routes'
// tagBound.longest: the first item (in validTags' order) or event whose
// list encoding/json would decode with more than ingest.MaxEventTags
// tags, and that list's length; n is 0 when there is none or the body is
// no valid JSON.
func longPredictTags(body []byte) (item, n int) {
	var v struct {
		Tags  elemCount `json:"tags"`
		Batch []struct {
			Tags elemCount `json:"tags"`
		} `json:"batch"`
	}
	_ = json.Unmarshal(body, &v)
	if v.Tags > ingest.MaxEventTags {
		return 0, int(v.Tags)
	}
	for i, it := range v.Batch {
		if it.Tags > ingest.MaxEventTags {
			return i, int(it.Tags)
		}
	}
	return 0, 0
}

func longPlaceTags(body []byte) (item, n int) {
	var v struct {
		Tags elemCount `json:"tags"`
	}
	_ = json.Unmarshal(body, &v)
	return 0, int(v.Tags)
}

func longEventTags(body []byte) (item, n int) {
	var v struct {
		Events []struct {
			Tags elemCount `json:"tags"`
		} `json:"events"`
	}
	_ = json.Unmarshal(body, &v)
	for i, e := range v.Events {
		if e.Tags > ingest.MaxEventTags {
			return i, int(e.Tags)
		}
	}
	return 0, 0
}

// tooManyEventTags is serveIngest's 400 for ingest.Validate's refusal of
// the list.
func tooManyEventTags(w http.ResponseWriter, i, n int) {
	WriteError(w, http.StatusBadRequest, "%v", ingest.TooManyTags(i, n))
}

// edgeScanner walks one body. Every method that can fail returns
// ok=false to decline; none of them reports why.
type edgeScanner struct {
	s string
	i int
	// strs backs every tag list handed out, so a request's tags cost one
	// allocation. A list is cut off its end once complete; if append has
	// to move the array, the lists already handed out keep the old one.
	strs []string
}

func newEdgeScanner(s string) edgeScanner {
	return edgeScanner{s: s, strs: make([]string, 0, min(strings.Count(s, `"`)/2, edgeHintMax))}
}

// objects bounds the number of nested objects in the body, for
// pre-sizing the batch or event slice.
func (p *edgeScanner) objects() int {
	return min(strings.Count(p.s, "{")-1, edgeHintMax)
}

func (p *edgeScanner) ws() {
	for p.i < len(p.s) {
		// One compare in the common case: nothing to skip.
		if c := p.s[p.i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			return
		}
		p.i++
	}
}

// byte consumes c, after whitespace.
func (p *edgeScanner) byte(c byte) bool {
	p.ws()
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (p *edgeScanner) end() bool {
	p.ws()
	return p.i == len(p.s)
}

// strByte classifies a byte inside a string: 0 is plain ASCII, the
// string continues; strHigh starts a multi-byte sequence, to be
// validated as UTF-8 at the closing quote; strStop is the closing quote
// or a byte the fast path does not take (a backslash, a control byte).
const (
	strHigh = 1
	strStop = 2
)

var strByte = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c < 0x20 || c == '"' || c == '\\':
			t[c] = strStop
		case c >= utf8.RuneSelf:
			t[c] = strHigh
		}
	}
	return t
}()

// str consumes a string that needs no unescaping and is valid UTF-8, and
// returns it as a substring of the body.
func (p *edgeScanner) str() (string, bool) {
	if !p.byte('"') {
		return "", false
	}
	s, start := p.s, p.i
	var high uint8
	for i := start; i < len(s); i++ {
		class := strByte[s[i]]
		if class != strStop {
			high |= class
			continue
		}
		if s[i] != '"' {
			break
		}
		p.i = i + 1
		v := s[start:i]
		return v, high == 0 || utf8.ValidString(v)
	}
	return "", false
}

// strList consumes an array of strings. An empty array is an empty
// non-nil slice, as encoding/json makes it. A list longer than
// ingest.MaxEventTags, which no item or event may carry, is declined at
// its first string past the bound, unstored.
func (p *edgeScanner) strList() ([]string, bool) {
	start := len(p.strs)
	ok := p.array(func() bool {
		if len(p.strs)-start == ingest.MaxEventTags {
			return false
		}
		v, ok := p.str()
		p.strs = append(p.strs, v)
		return ok
	})
	return p.strs[start:len(p.strs):len(p.strs)], ok
}

// next consumes what follows an element: a comma (more elements) or the
// closing delimiter.
func (p *edgeScanner) next(closing byte) (more, ok bool) {
	p.ws()
	if p.i == len(p.s) {
		return false, false
	}
	c := p.s[p.i]
	p.i++
	return c == ',', c == ',' || c == closing
}

// digits consumes a JSON integer part without sign: "0" or a run of
// digits with no leading zero.
func (p *edgeScanner) digits() bool {
	start := p.i
	return p.anyDigits() && (p.i-start == 1 || p.s[start] != '0')
}

// uint consumes a plain unsigned integer of at most bits bits. What
// follows it is the caller's to check; a fraction or exponent fails
// there, as it is no delimiter.
func (p *edgeScanner) uint(bits int) (uint64, bool) {
	p.ws()
	start := p.i
	if !p.digits() {
		return 0, false
	}
	v, err := strconv.ParseUint(p.s[start:p.i], 10, bits)
	return v, err == nil
}

// float consumes a number of the JSON grammar and converts it with the
// function encoding/json uses, so the two cannot disagree on a value; an
// out-of-range one is declined.
func (p *edgeScanner) float() (float64, bool) {
	p.ws()
	start := p.i
	if p.i < len(p.s) && p.s[p.i] == '-' {
		p.i++
	}
	if !p.digits() {
		return 0, false
	}
	if p.i < len(p.s) && p.s[p.i] == '.' {
		p.i++
		if !p.anyDigits() {
			return 0, false
		}
	}
	if p.i < len(p.s) && (p.s[p.i] == 'e' || p.s[p.i] == 'E') {
		p.i++
		if p.i < len(p.s) && (p.s[p.i] == '+' || p.s[p.i] == '-') {
			p.i++
		}
		if !p.anyDigits() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(p.s[start:p.i], 64)
	return v, err == nil
}

// anyDigits consumes one or more digits.
func (p *edgeScanner) anyDigits() bool {
	start := p.i
	for p.i < len(p.s) && p.s[p.i] >= '0' && p.s[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// boolean consumes true or false.
func (p *edgeScanner) boolean() (v, ok bool) {
	p.ws()
	switch rest := p.s[p.i:]; {
	case strings.HasPrefix(rest, "true"):
		p.i += 4
		return true, true
	case strings.HasPrefix(rest, "false"):
		p.i += 5
		return false, true
	}
	return false, false
}

// object consumes one object whose keys are exactly those of names,
// each at most once, calling field with the key's index to consume its
// value.
func (p *edgeScanner) object(names []string, field func(key int) bool) bool {
	if !p.byte('{') {
		return false
	}
	if p.byte('}') {
		return true
	}
	seen := 0
	for {
		name, ok := p.str()
		if !ok || !p.byte(':') {
			return false
		}
		key := -1
		for i, n := range names {
			if name == n {
				key = i
				break
			}
		}
		if key < 0 || seen&(1<<key) != 0 || !field(key) {
			return false
		}
		seen |= 1 << key
		if more, ok := p.next('}'); !more {
			return ok
		}
	}
}

// array consumes an array, calling elem to consume each element.
func (p *edgeScanner) array(elem func() bool) bool {
	if !p.byte('[') {
		return false
	}
	if p.byte(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if more, ok := p.next(']'); !more {
			return ok
		}
	}
}

// The key tables below are the JSON names of the structs they decode;
// TestEdgeKeyTablesMatchStructTags keeps them from drifting.
var (
	predictRequestKeys = []string{"tags", "batch", "weighting", "top"}
	predictItemKeys    = []string{"tags"}
	ingestRequestKeys  = []string{"events"}
	ingestEventKeys    = []string{"video", "tags", "country", "views", "upload"}
)

func parsePredictRequest(s string, req *PredictRequest) bool {
	p := newEdgeScanner(s)
	ok := p.object(predictRequestKeys, func(key int) (ok bool) {
		switch key {
		case 0:
			req.Tags, ok = p.strList()
		case 1:
			req.Batch = make([]PredictItem, 0, p.objects())
			ok = p.array(func() bool {
				var item PredictItem
				ok := p.object(predictItemKeys, func(int) (ok bool) {
					item.Tags, ok = p.strList()
					return ok
				})
				req.Batch = append(req.Batch, item)
				return ok
			})
		case 2:
			req.Weighting, ok = p.str()
		case 3:
			var top uint64
			top, ok = p.uint(31)
			req.Top = int(top)
		}
		return ok
	})
	return ok && p.end()
}

// events consumes an array of ingest events.
func (p *edgeScanner) events() ([]IngestEvent, bool) {
	events := make([]IngestEvent, 0, p.objects())
	ok := p.array(func() bool {
		var e IngestEvent
		ok := p.object(ingestEventKeys, func(key int) (ok bool) {
			switch key {
			case 0:
				e.Video, ok = p.str()
			case 1:
				e.Tags, ok = p.strList()
			case 2:
				e.Country, ok = p.str()
			case 3:
				e.Views, ok = p.float()
			case 4:
				e.Upload, ok = p.boolean()
			}
			return ok
		})
		events = append(events, e)
		return ok
	})
	return events, ok
}

func parseIngestRequest(s string, req *IngestRequest) bool {
	p := newEdgeScanner(s)
	ok := p.object(ingestRequestKeys, func(int) (ok bool) {
		req.Events, ok = p.events()
		return ok
	})
	return ok && p.end()
}
