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
	w.Gauge("viewstags_build_info", "Build identity; value is always 1.")
	w.Sample("viewstags_build_info", labels, 1)
	w.Gauge("process_start_time_seconds", "Unix time the process started.")
	w.Sample("process_start_time_seconds", nil, float64(processStart.UnixNano())/1e9)
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
// and GC — and the process's resident memory to an exposition. Both
// daemons' /metrics handlers call it last, so runtime gauges carry the
// standard go_ prefix after the service's own viewstags_ families.
func WriteGoRuntime(w *TextWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Gauge("go_goroutines", "Number of live goroutines.")
	w.Sample("go_goroutines", nil, float64(runtime.NumGoroutine()))
	w.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	w.Sample("go_heap_alloc_bytes", nil, float64(ms.HeapAlloc))
	if rss, peak, ok := ResidentMemory(); ok {
		w.Gauge("process_resident_memory_bytes", "Resident set size (VmRSS).")
		w.Sample("process_resident_memory_bytes", nil, float64(rss))
		w.Gauge("viewstags_process_peak_rss_bytes", "Resident set high-water mark since exec (VmHWM): equal to the resident size until something is given back, so it says whether boot or traffic set the peak.")
		w.Sample("viewstags_process_peak_rss_bytes", nil, float64(peak))
	}
	w.Gauge("go_heap_objects", "Number of allocated heap objects.")
	w.Sample("go_heap_objects", nil, float64(ms.HeapObjects))
	w.Counter("go_gc_runs_total", "Completed GC cycles.")
	w.Sample("go_gc_runs_total", nil, float64(ms.NumGC))
	w.Counter("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
	w.Sample("go_gc_pause_seconds_total", nil, float64(ms.PauseTotalNs)/1e9)
}
