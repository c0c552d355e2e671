//go:build unix

package viewstags_test

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time this process has used, user plus
// system, from getrusage(RUSAGE_SELF): every thread's, so a benchmark
// whose work runs on goroutines beside its own is charged for them too.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
