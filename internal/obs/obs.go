// Package obs is the serving tier's dependency-free observability
// layer: fixed log-bucket latency histograms with an allocation-free
// atomic Observe hot path, a hand-rolled Prometheus-text-format
// encoder (plus a conformance validator the tests and CI scrape checks
// share), request-id generation for edge-to-shard tracing, and Go
// runtime gauges. Every runtime package (internal/server,
// internal/cluster, internal/ingest, internal/persist) records into
// this package; the /metrics handlers on cmd/serve and cmd/gateway
// render it.
//
// The package deliberately depends on nothing but the standard library
// and internal/stats (whose log-spaced bucket-edge math the histogram
// reuses): observability must never be the thing that pulls a
// dependency into the serving path.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync/atomic"
)

// TraceHeader is the request-id header: generated (or honored) at the
// edge, propagated through gateway fan-out to the shards, and echoed
// on every response. One request carries one id on every hop.
const TraceHeader = "X-Request-Id"

// MaxRequestIDLen bounds an honored inbound request id: the size of an
// exemplar slot, so every id a histogram points at is a whole, fetchable
// one. A longer (or malformed) id is replaced, not truncated, so logs
// never carry attacker-shaped bytes.
const MaxRequestIDLen = 64

// ValidRequestID reports whether an inbound id is safe to honor: ASCII
// letters, digits and -_.: within MaxRequestIDLen. Anything else is
// replaced by NewRequestID so log lines and error envelopes stay
// single-line and grep-safe.
func ValidRequestID(s string) bool {
	if s == "" || len(s) > MaxRequestIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// traceState is the request-id generator state: seeded from the OS
// entropy pool once, stepped by a splitmix64 increment per id, so ids
// are unique within a process and collide across processes only by
// 64-bit accident.
var traceState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		traceState.Store(binary.LittleEndian.Uint64(b[:]))
	}
}

const hexDigits = "0123456789abcdef"

// NewRequestID returns a fresh 16-hex-char request id. One small
// allocation (the string itself); safe for concurrent use.
func NewRequestID() string {
	x := traceState.Add(0x9e3779b97f4a7c15)
	// splitmix64 finalizer: consecutive counter values come out
	// uncorrelated, so ids don't look sequential in logs.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexDigits[x&0xf]
		x >>= 4
	}
	return string(buf[:])
}
