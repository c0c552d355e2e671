package obs

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// processStart anchors process_start_time_seconds: captured at package
// init, which for both daemons is within milliseconds of exec.
var processStart = time.Now()

// WriteBuildInfo appends the identity gauges every scrape target
// should carry: viewstags_build_info (value 1; go version, module
// version and any caller labels such as the ring signature) and the
// standard process_start_time_seconds, which lets a scraper detect
// restarts and mixed-version clusters.
func WriteBuildInfo(w *TextWriter, extra ...Label) {
	version := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	labels := append([]Label{
		{Name: "go_version", Value: runtime.Version()},
		{Name: "version", Value: version},
	}, extra...)
	w.Encode(struct {
		Info int `prom:"viewstags_build_info,gauge" help:"Build identity; value is always 1."`
	}{1}, labels...)
	w.Encode(struct {
		Start float64 `prom:"process_start_time_seconds,gauge" help:"Unix time the process started."`
	}{float64(processStart.UnixNano()) / 1e9})
}

// ResidentMemory reads the process's resident set and its high-water
// mark (VmRSS and VmHWM in /proc/self/status), in bytes. ok is false
// where the file or either line is absent (non-Linux): callers omit the
// numbers rather than report zeros.
func ResidentMemory() (rss, peak int64, ok bool) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, false
	}
	field := func(key string) int64 {
		_, rest, found := bytes.Cut(raw, []byte("\n"+key+":"))
		if !found {
			return 0
		}
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(line), []byte(" kB"))), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	if rss, peak = field("VmRSS"), field("VmHWM"); rss == 0 || peak == 0 {
		return 0, 0, false
	}
	return rss, peak, true
}

// WriteGoRuntime appends the Go runtime families — goroutines, heap
// and GC — to an exposition. Both daemons' /metrics handlers call it
// after their own families, so runtime gauges carry the standard go_
// prefix after the service's viewstags_ ones. (The process's resident
// memory is a field of each daemon's stats snapshot.)
func WriteGoRuntime(w *TextWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Encode(struct {
		Goroutines  int     `prom:"go_goroutines,gauge" help:"Number of live goroutines."`
		HeapAlloc   uint64  `prom:"go_heap_alloc_bytes,gauge" help:"Bytes of allocated heap objects."`
		HeapObjects uint64  `prom:"go_heap_objects,gauge" help:"Number of allocated heap objects."`
		GCRuns      uint32  `prom:"go_gc_runs_total,counter" help:"Completed GC cycles."`
		GCPause     float64 `prom:"go_gc_pause_seconds_total,counter" help:"Cumulative GC stop-the-world pause time."`
	}{runtime.NumGoroutine(), ms.HeapAlloc, ms.HeapObjects, ms.NumGC, float64(ms.PauseTotalNs) / 1e9})
}
