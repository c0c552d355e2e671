package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The encoding half of the edge codec (see edge_decode.go): append-style
// encoders whose bytes equal encoding/json's for the same value. A value
// they cannot render identically without encoding/json's escaping or
// error paths — a non-finite float, a string encoding/json would escape
// — is declined (ok=false) and the caller sends the whole value through
// encoding/json, so HTML-safe escaping and the 500-on-unencodable
// behaviour keep their one implementation.

// appendString appends s as a JSON string, declining what encoding/json
// would escape or repair: control bytes, `"\<>&`, U+2028/2029, invalid
// UTF-8.
func appendString(dst []byte, s string) ([]byte, bool) {
	ascii := true
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return dst, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if !ascii && (!utf8.ValidString(s) || strings.Contains(s, "\u2028") || strings.Contains(s, "\u2029")) {
		return dst, false
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// appendStrings appends a []string the way encoding/json does: null for
// a nil slice.
func appendStrings(dst []byte, list []string) ([]byte, bool) {
	if list == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i, s := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendString(dst, s); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// appendFloat appends f in encoding/json's float64 format: 'f' unless
// the magnitude is below 1e-6 or at least 1e21, then 'e' with a
// two-digit exponent's leading zero trimmed. Non-finite values decline.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

func appendPredictResult(dst []byte, r *PredictResult) ([]byte, bool) {
	dst = append(dst, `{"known":`...)
	dst = strconv.AppendBool(dst, r.Known)
	dst = append(dst, `,"top":`...)
	if r.Top == nil {
		return append(dst, "null}"...), true
	}
	dst = append(dst, '[')
	for i := range r.Top {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		dst = append(dst, `{"country":`...)
		if dst, ok = appendString(dst, r.Top[i].Country); !ok {
			return dst, false
		}
		dst = append(dst, `,"share":`...)
		if dst, ok = appendFloat(dst, r.Top[i].Share); !ok {
			return dst, false
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), true
}

// appendPredictResponse appends resp as json.Marshal renders it.
func appendPredictResponse(dst []byte, resp *PredictResponse) ([]byte, bool) {
	var ok bool
	dst = append(dst, `{"weighting":`...)
	if dst, ok = appendString(dst, resp.Weighting); !ok {
		return dst, false
	}
	if resp.Result != nil {
		dst = append(dst, `,"result":`...)
		if dst, ok = appendPredictResult(dst, resp.Result); !ok {
			return dst, false
		}
	}
	if len(resp.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range resp.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendPredictResult(dst, &resp.Results[i]); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), true
}

func appendIngestResponse(dst []byte, resp *IngestResponse) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(resp.Accepted), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, resp.Epoch, 10)
	dst = append(dst, `,"pending":`...)
	dst = strconv.AppendInt(dst, resp.Pending, 10)
	return append(dst, '}')
}

// appendInternalIngestRequest appends req as json.Marshal renders it.
func appendInternalIngestRequest(dst []byte, req *InternalIngestRequest) ([]byte, bool) {
	var ok bool
	dst = append(dst, '{')
	if len(req.Events) > 0 {
		dst = append(dst, `"events":[`...)
		for i := range req.Events {
			e := &req.Events[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			if e.Video != "" {
				dst = append(dst, `"video":`...)
				if dst, ok = appendString(dst, e.Video); !ok {
					return dst, false
				}
				dst = append(dst, ',')
			}
			dst = append(dst, `"tags":`...)
			if dst, ok = appendStrings(dst, e.Tags); !ok {
				return dst, false
			}
			dst = append(dst, `,"country":`...)
			if dst, ok = appendString(dst, e.Country); !ok {
				return dst, false
			}
			dst = append(dst, `,"views":`...)
			if dst, ok = appendFloat(dst, e.Views); !ok {
				return dst, false
			}
			if e.Upload {
				dst = append(dst, `,"upload":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(req.Uploads) > 0 {
		if len(req.Events) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"uploads":`...)
		if dst, ok = appendStrings(dst, req.Uploads); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// MarshalInternalIngestRequest renders the gateway's per-shard ingest
// body; the bytes are json.Marshal's.
func MarshalInternalIngestRequest(req *InternalIngestRequest) ([]byte, error) {
	size := 32 // an over-estimate, so the body is one allocation
	for i := range req.Events {
		e := &req.Events[i]
		size += 96 + len(e.Video) + len(e.Country)
		for _, tag := range e.Tags {
			size += len(tag) + 3
		}
	}
	for _, v := range req.Uploads {
		size += len(v) + 3
	}
	if body, ok := appendInternalIngestRequest(make([]byte, 0, size), req); ok {
		return body, nil
	}
	return json.Marshal(req)
}

// WritePredictResponse answers 200 with resp, byte for byte what
// WriteJSON would send. Exported, like DecodePredictBody, for the root
// benchmarks.
func WritePredictResponse(w http.ResponseWriter, resp *PredictResponse) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	body, ok := appendPredictResponse(buf.AvailableBuffer(), resp)
	if !ok {
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	buf.Write(append(body, '\n')) // in place unless the append outgrew the buffer
	writeBody(w, http.StatusOK, buf.Bytes())
}

// writeIngestResponse answers 200 with the ingest ack, byte for byte
// what WriteJSON would send.
func writeIngestResponse(w http.ResponseWriter, resp *IngestResponse) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	buf.Write(append(appendIngestResponse(buf.AvailableBuffer(), resp), '\n'))
	writeBody(w, http.StatusOK, buf.Bytes())
}
