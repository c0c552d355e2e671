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
	"runtime"
	"strconv"
	"strings"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/dataset"
	"viewstags/internal/obs"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/ring"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
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
	rg, err := ring.New(3, 1)
	if err != nil {
		return err
	}
	shard0 := func(tag string) bool { return rg.Owns(tag, 0) }
	var snap *profilestore.Snapshot
	var resident []any // what the mode's daemon would hold beside the snapshot
	switch mode {
	case "shard", "whole", "node", "copying-node", "retaining-node":
		owns := shard0
		if mode != "shard" {
			owns = nil
		}
		var truth []int64
		if mode == "copying-node" {
			// What a node's served catalog held while it answered
			// oracle-push: every video's ground-truth field, filled by
			// the pass.
			truth = make([]int64, bootPeakVideos*60)
			for i := range truth {
				truth[i] = int64(i)
			}
		}
		var cat *synth.Catalog
		if mode == "retaining-node" {
			// What a standalone node held before /v1/preload ranked on
			// demand: the research catalog, alive through the pass as when
			// the pass collected it, and its prediction table.
			cfg := synth.DefaultConfig(bootPeakVideos)
			cfg.Seed = bootPeakSeed
			if cat, err = synth.Generate(cfg); err != nil {
				return err
			}
		}
		b, err := pipeline.BootSynthetic(bootPeakVideos, bootPeakSeed, alexa.DefaultConfig(), owns, mode == "node" || mode == "copying-node")
		if err != nil {
			return err
		}
		if mode == "copying-node" {
			// ... and the build as it was before it adopted the sums: a
			// slab of copies, with the sums alive until it returns.
			snap, err = profilestore.BuildOwned(&tagviews.Analysis{Aggregate: *b.Aggregate}, nil)
		} else {
			snap, err = profilestore.BuildAggregate(b.Aggregate, nil)
		}
		if err != nil {
			return err
		}
		resident = append(resident, b.Served, cat, truth)
		if cat != nil {
			resident = append(resident, snap.PredictCatalog(cat, tagviews.WeightIDF))
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
	runtime.KeepAlive(resident)
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

	// Measured in this test binary when the gate was set (limits ≈1.25×):
	// shard ≈20.5 MB, whole vocabulary ≈26 MB, and a standalone node — the
	// whole vocabulary plus ≈1.4 MB of served catalog — ≈27.5 MB (daemons:
	// ≈15.5, ≈21 and ≈22.5; ≈7 MB of each is runtime and binary). Each
	// limit has a printed reference that must itself fail it, or the gate
	// has stopped telling the two apart: a shard through the retaining path
	// (≈90 MB), and for the node both forms it has had — the build copying
	// the sums into a slab beside 9.6 MB of ground truth in the served
	// catalog (≈42 MB), and before that the research catalog kept through
	// the pass with a prediction table after it (≈60 MB).
	const shardLimitMB, wholeLimitMB, nodeLimitMB = 26, 33, 35
	shard, whole, node := peakMB("shard"), peakMB("whole"), peakMB("node")
	ref, copyRef, nodeRef := peakMB("retaining-shard"), peakMB("copying-node"), peakMB("retaining-node")
	t.Logf("boot peak (VmHWM, %d videos): shard 0/3 %.1f MB (limit %d), whole vocabulary without catalog %.1f MB (limit %d), standalone node with its served catalog %.1f MB (limit %d); references: shard 0/3 through the retaining path %.1f MB, node copying the sums and keeping ground truth %.1f MB, node keeping the research catalog and a prediction table %.1f MB",
		bootPeakVideos, shard, shardLimitMB, whole, wholeLimitMB, node, nodeLimitMB, ref, copyRef, nodeRef)
	if shard > shardLimitMB {
		t.Errorf("a shard's boot peaked at %.1f MB, limit %d MB: something keeps the corpus alive through the pass", shard, shardLimitMB)
	}
	if whole > wholeLimitMB {
		t.Errorf("a whole-vocabulary boot without catalog peaked at %.1f MB, limit %d MB", whole, wholeLimitMB)
	}
	if node > nodeLimitMB {
		t.Errorf("a standalone node's boot peaked at %.1f MB, limit %d MB: it keeps more of the catalog than it serves", node, nodeLimitMB)
	}
	if ref <= shardLimitMB {
		t.Errorf("the retaining path peaked at %.1f MB, under the shard limit of %d MB: the gate no longer separates the two", ref, shardLimitMB)
	}
	if copyRef <= nodeLimitMB {
		t.Errorf("a node copying the sums and keeping ground truth peaked at %.1f MB, under the node limit of %d MB: the gate no longer separates the two", copyRef, nodeLimitMB)
	}
	if nodeRef <= nodeLimitMB {
		t.Errorf("a node keeping the research catalog and a prediction table peaked at %.1f MB, under the node limit of %d MB: the gate no longer separates the two", nodeRef, nodeLimitMB)
	}
}

// bootLendingNothing is the streaming pass of pipeline.BootSynthetic, then
// the build, written the way the pass must not be: every video gets a
// fresh Video, a fresh Record and no scratch, so each step allocates what
// it returns. TestBootAllocationBudget's reference.
func bootLendingNothing(owns func(string) bool, keepServed bool) error {
	cfg := synth.DefaultConfig(bootPeakVideos)
	cfg.Seed = bootPeakSeed
	gen, err := synth.NewGenerator(cfg)
	if err != nil {
		return err
	}
	defer gen.Close()
	cat := gen.Catalog()
	pyt, err := alexa.Estimate(cat.World, alexa.DefaultConfig())
	if err != nil {
		return err
	}
	agg, err := tagviews.NewAggregator(cat.World, pyt, owns)
	if err != nil {
		return err
	}
	var served *synth.Served
	if keepServed {
		served = cat.NewServed(cfg.Videos)
	}
	var report dataset.FilterReport
	for {
		var v synth.Video
		if !gen.Next(&v) {
			break
		}
		if served != nil {
			served.Add(&v)
		}
		var rec dataset.Record
		cat.RecordInto(&rec, &v)
		if pop, ok := report.Admit(cat.World, &rec, nil); ok {
			agg.Add(&rec, pop)
		}
	}
	_, err = profilestore.BuildAggregate(agg.Finish(), nil)
	return err
}

// TestBootAllocationBudget gates what a boot allocates in total, beside
// what it peaks at: a pass that makes garbage around its state lets the
// collector's pacing, not the serving set, decide the daemon's high-water
// mark (DESIGN.md §2 "What a boot allocates"). Anything called once per
// video writes into storage its caller lends; one step that stops doing so
// costs 20 000 objects, which is what the budgets are sized to notice.
func TestBootAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation perturbs allocation counts; the budgets are pinned without it")
	}
	rg, err := ring.New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard0 := func(tag string) bool { return rg.Owns(tag, 0) }
	measure := func(boot func() error) (mb float64, objects uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := boot(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 1e6, after.Mallocs - before.Mallocs // MB as -benchmem's B/op counts them
	}
	streaming := func(owns func(string) bool) func() error {
		return func() error {
			b, err := pipeline.BootSynthetic(bootPeakVideos, bootPeakSeed, alexa.DefaultConfig(), owns, owns == nil)
			if err != nil {
				return err
			}
			_, err = profilestore.BuildAggregate(b.Aggregate, nil)
			return err
		}
	}
	// Budgets are the measurements when the gate was set × 1.1: shard 0/3
	// 6.2 MB in 63.2k objects, a standalone node 13.3 MB in 78.6k (before
	// the pass lent its storage: 21.2 MB / 285.7k and 28.4 MB / 301.1k).
	// 40k of either count are the id and title strings the videos carry.
	for _, c := range []struct {
		name       string
		owns       func(string) bool
		limitMB    float64
		limitCount uint64
	}{
		{"shard 0/3", shard0, 6.8, 69_500},
		{"standalone node", nil, 14.7, 86_500},
	} {
		mb, objects := measure(streaming(c.owns))
		refMB, refObjects := measure(func() error { return bootLendingNothing(c.owns, c.owns == nil) })
		t.Logf("%s boot (%d videos): %.1f MB in %d objects (limits %.1f MB, %d); reference, the same pass lending nothing: %.1f MB in %d objects",
			c.name, bootPeakVideos, mb, objects, c.limitMB, c.limitCount, refMB, refObjects)
		if mb > c.limitMB || objects > c.limitCount {
			t.Errorf("%s: the boot allocated %.1f MB in %d objects, budget %.1f MB in %d: a per-video step allocates what it used to be lent",
				c.name, mb, objects, c.limitMB, c.limitCount)
		}
		if refMB <= c.limitMB || refObjects <= c.limitCount {
			t.Errorf("%s: a pass lending nothing allocated %.1f MB in %d objects, inside the budget of %.1f MB in %d: the gate no longer separates the two",
				c.name, refMB, refObjects, c.limitMB, c.limitCount)
		}
	}
}
