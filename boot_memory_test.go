// Peak-memory gate for the daemons' boot. A shard's boot streams the
// corpus through filter → reconstruct → aggregate and holds no per-video
// array (internal/pipeline BootSynthetic), so its resident peak is its
// slice of the vocabulary plus one video of scratch — a property that
// regresses as silently as an allocation budget: keep one per-video slice
// alive through the pass and every shard is back to paying for the
// corpus. The gate measures what the benchmark's rss_mb does (VmHWM) in a
// child process, so the parent test binary's heap does not count.
package viewstags_test

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/cluster"
	"viewstags/internal/obs"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
)

const (
	// bootPeakChildEnv selects, in a re-executed test binary, which
	// build TestBootPeakMemory runs and reports instead of the gate.
	bootPeakChildEnv = "VIEWSTAGS_BOOT_PEAK_CHILD"
	// The benchmark's catalog (bench/spec.go).
	bootPeakVideos = 20000
	bootPeakSeed   = 20110301
)

// bootPeakChild builds one snapshot the way mode says and prints the
// process's resident high-water mark.
func bootPeakChild(mode string) error {
	ring, err := cluster.NewRingReplicas(3, 0, 1)
	if err != nil {
		return err
	}
	shard0 := func(tag string) bool { return ring.Owns(tag, 0) }
	var snap *profilestore.Snapshot
	switch mode {
	case "shard", "whole":
		owns := shard0
		if mode == "whole" {
			owns = nil
		}
		b, err := pipeline.BootSynthetic(bootPeakVideos, bootPeakSeed, alexa.DefaultConfig(), owns, false)
		if err != nil {
			return err
		}
		if snap, err = profilestore.BuildAggregate(b.Aggregate, nil); err != nil {
			return err
		}
	case "retaining-shard": // the boot before it streamed: the reference
		res, err := pipeline.FromSynthetic(bootPeakVideos, bootPeakSeed, alexa.DefaultConfig())
		if err != nil {
			return err
		}
		if snap, err = profilestore.BuildOwned(res.Analysis, shard0); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	_, peak, ok := obs.ResidentMemory()
	if !ok {
		return fmt.Errorf("/proc/self/status has no VmHWM")
	}
	fmt.Printf("boot-peak tags=%d peak_bytes=%d\n", snap.NumTags(), peak)
	return nil
}

func TestBootPeakMemory(t *testing.T) {
	if mode := os.Getenv(bootPeakChildEnv); mode != "" {
		if err := bootPeakChild(mode); err != nil {
			t.Fatal(err)
		}
		return
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is resident too; the gate is pinned without it")
	}
	if _, _, ok := obs.ResidentMemory(); !ok {
		t.Skip("no VmHWM in /proc/self/status on this platform")
	}
	peakMB := func(mode string) float64 {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestBootPeakMemory$", "-test.count=1")
		cmd.Env = append(os.Environ(), bootPeakChildEnv+"="+mode)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child: %v\n%s", mode, err, out)
		}
		_, rest, found := strings.Cut(string(out), "peak_bytes=")
		if !found {
			t.Fatalf("%s child printed no peak:\n%s", mode, out)
		}
		line, _, _ := strings.Cut(rest, "\n")
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("%s child: %v", mode, err)
		}
		return float64(n) / (1 << 20)
	}

	// Measured in this test binary when the gate was set: shard ≈27 MB,
	// whole vocabulary ≈37 MB (a daemon: ≈20 and ≈31), and ≈91–95 MB for
	// a shard through the retaining path — which is run once here as the
	// printed reference, and must itself fail the shard limit, or the gate
	// has stopped telling the two apart.
	const shardLimitMB, wholeLimitMB = 45, 60
	shard, whole, ref := peakMB("shard"), peakMB("whole"), peakMB("retaining-shard")
	t.Logf("boot peak (VmHWM, %d videos): shard 0/3 %.1f MB (limit %d), whole vocabulary without catalog %.1f MB (limit %d); reference, shard 0/3 through the retaining path: %.1f MB",
		bootPeakVideos, shard, shardLimitMB, whole, wholeLimitMB, ref)
	if shard > shardLimitMB {
		t.Errorf("a shard's boot peaked at %.1f MB, limit %d MB: something keeps the corpus alive through the pass", shard, shardLimitMB)
	}
	if whole > wholeLimitMB {
		t.Errorf("a whole-vocabulary boot without catalog peaked at %.1f MB, limit %d MB", whole, wholeLimitMB)
	}
	if ref <= shardLimitMB {
		t.Errorf("the retaining path peaked at %.1f MB, under the shard limit of %d MB: the gate no longer separates the two", ref, shardLimitMB)
	}
}
