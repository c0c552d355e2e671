//go:build !unix

package viewstags_test

import "time"

// processCPU is not measured off unix: benchmarks report no CPU column.
func processCPU() (time.Duration, bool) { return 0, false }
