package server

import (
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
