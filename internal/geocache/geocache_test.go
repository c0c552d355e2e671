package geocache

import (
	"testing"

	"viewstags/internal/dist"
	"viewstags/internal/synth"
)

func TestLRUSemantics(t *testing.T) {
	c := newLRU(2)
	if c.lookup(1) {
		t.Fatal("cold lookup hit")
	}
	if !c.lookup(1) {
		t.Fatal("warm lookup missed")
	}
	c.lookup(2) // miss, insert
	c.lookup(1) // hit, refresh
	c.lookup(3) // miss, evicts 2 (LRU)
	if c.lookup(2) {
		t.Fatal("evicted entry still present")
	}
	// 2's miss inserted it back, evicting 1's... order: after lookup(3):
	// cache = {1,3}; lookup(2) missed and inserted 2 evicting LRU (1? no:
	// 1 was refreshed before 3, so LRU is 1). Verify 3 survives.
	if !c.lookup(3) {
		t.Fatal("3 should have survived")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := newLRU(0)
	if c.lookup(1) {
		t.Fatal("hit in zero-capacity cache")
	}
	if c.len() != 0 {
		t.Fatal("zero-capacity cache stored something")
	}
	c.preload(5)
	if c.len() != 0 {
		t.Fatal("preload into zero-capacity cache")
	}
}

func TestLFUSemantics(t *testing.T) {
	c := newLFU(2)
	c.lookup(1)
	c.lookup(1) // freq(1)=2... (first lookup admits with count 1, second hits)
	c.lookup(2) // admit
	c.lookup(2)
	c.lookup(2)      // freq(2) high
	c.lookup(3)      // admit requires evicting the min-freq entry = 1
	if c.lookup(1) { // 1 must be gone
		t.Fatal("LFU kept the low-frequency entry")
	}
	if !c.lookup(2) {
		t.Fatal("LFU evicted the hot entry")
	}
}

func TestStaticCacheNeverAdmits(t *testing.T) {
	c := newStatic(4)
	c.preload(7)
	if !c.lookup(7) {
		t.Fatal("preloaded entry missing")
	}
	if c.lookup(9) {
		t.Fatal("phantom hit")
	}
	if c.lookup(9) {
		t.Fatal("static cache admitted on miss")
	}
	if c.len() != 1 {
		t.Fatalf("len = %d", c.len())
	}
}

// testSim builds a simulator over a small catalog with tag predictions
// derived from ground-truth tag affinities (a stand-in for the trained
// predictor — the tagviews integration is exercised in the root bench).
func testSim(t *testing.T, nReq int) (*synth.Catalog, *Simulator) {
	t.Helper()
	cat, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Requests = nReq
	sim, err := NewSimulator(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred := make([][]float64, len(cat.Videos))
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if len(v.TagIDs) == 0 {
			continue
		}
		comps := make([][]float64, 0, len(v.TagIDs))
		ws := make([]float64, 0, len(v.TagIDs))
		for k, tid := range v.TagIDs {
			comps = append(comps, cat.Vocab.AffinityInto(make([]float64, cat.World.N()), tid))
			ws = append(ws, 1/float64(k+1))
		}
		m, err := dist.Mix(comps, ws)
		if err != nil {
			t.Fatal(err)
		}
		pred[i] = m
	}
	if err := sim.SetPredictions(pred); err != nil {
		t.Fatal(err)
	}
	return cat, sim
}

func TestPolicyOrdering(t *testing.T) {
	// The E6 headline shape: oracle >= tag-push >= pop-push, and
	// tag-push beats reactive LRU at equal capacity.
	_, sim := testSim(t, 60_000)
	const slots = 64
	results := map[PolicyKind]Result{}
	for _, p := range []PolicyKind{PolicyLRU, PolicyLFU, PolicyPopPush, PolicyTagPush, PolicyOracle} {
		r, err := sim.Run(p, slots)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		results[p] = r
		if r.Hits+r.OriginEgress != r.Requests {
			t.Fatalf("%v: hits+egress != requests", p)
		}
	}
	or, tp, pp, lru := results[PolicyOracle], results[PolicyTagPush], results[PolicyPopPush], results[PolicyLRU]
	if or.HitRatio < tp.HitRatio {
		t.Fatalf("oracle %.4f below tag-push %.4f", or.HitRatio, tp.HitRatio)
	}
	if tp.HitRatio <= pp.HitRatio {
		t.Fatalf("tag-push %.4f not above pop-push %.4f", tp.HitRatio, pp.HitRatio)
	}
	if tp.HitRatio <= lru.HitRatio {
		t.Fatalf("tag-push %.4f not above LRU %.4f", tp.HitRatio, lru.HitRatio)
	}
}

func TestHitRatioGrowsWithCapacity(t *testing.T) {
	_, sim := testSim(t, 30_000)
	var prev float64 = -1
	for _, slots := range []int{8, 32, 128} {
		r, err := sim.Run(PolicyOracle, slots)
		if err != nil {
			t.Fatal(err)
		}
		if r.HitRatio < prev {
			t.Fatalf("oracle hit ratio fell from %.4f to %.4f as capacity grew", prev, r.HitRatio)
		}
		prev = r.HitRatio
	}
}

func TestSweepShape(t *testing.T) {
	_, sim := testSim(t, 10_000)
	policies := []PolicyKind{PolicyLRU, PolicyTagPush}
	slots := []int{4, 16}
	rs, err := sim.Sweep(policies, slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("sweep returned %d results", len(rs))
	}
	if rs[0].Policy != PolicyLRU || rs[1].Policy != PolicyTagPush {
		t.Fatal("sweep order wrong")
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Requests = 5000
	a, err := NewSimulator(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSimulator(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Run(PolicyLRU, 16)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(PolicyLRU, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Hits != rb.Hits || ra.HitRatio != rb.HitRatio || ra.OriginEgress != rb.OriginEgress {
		t.Fatalf("simulation not deterministic: %v vs %v", ra, rb)
	}
	for c := range ra.CountryHits {
		if ra.CountryHits[c] != rb.CountryHits[c] {
			t.Fatalf("per-country hits not deterministic at %d", c)
		}
	}
}

func TestRequestStreamFollowsDemand(t *testing.T) {
	cat, sim := testSim(t, 50_000)
	// Count per-country requests; they should correlate with traffic.
	counts := make([]float64, cat.World.N())
	for _, r := range sim.requests {
		counts[r.country]++
	}
	us := cat.World.MustByCode("US")
	ie := cat.World.MustByCode("IE")
	if counts[us] <= counts[ie] {
		t.Fatalf("US requests (%v) not above IE (%v)", counts[us], counts[ie])
	}
}

func TestConfigValidation(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulator(cat, Config{Requests: 0}); err == nil {
		t.Fatal("zero requests accepted")
	}
	if _, err := NewSimulator(cat, Config{Requests: 10, SlotsPerCountry: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	sim, err := NewSimulator(cat, Config{Requests: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(PolicyKind(0), 8); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if _, err := sim.Run(PolicyTagPush, 8); err == nil {
		t.Fatal("tag-push without predictions accepted")
	}
	if err := sim.SetPredictions(make([][]float64, 3)); err == nil {
		t.Fatal("mis-sized predictions accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[PolicyKind]string{
		PolicyLRU: "lru", PolicyLFU: "lfu", PolicyPopPush: "pop-push",
		PolicyTagPush: "tag-push", PolicyOracle: "oracle-push",
	}
	for p, name := range want {
		if p.String() != name {
			t.Fatalf("%d.String() = %q", int(p), p.String())
		}
	}
}

func TestHybridPolicy(t *testing.T) {
	_, sim := testSim(t, 60_000)
	const slots = 64
	hybrid, err := sim.Run(PolicyHybrid, slots)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := sim.Run(PolicyLRU, slots)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := sim.Run(PolicyPopPush, slots)
	if err != nil {
		t.Fatal(err)
	}
	// The hybrid should beat both pure reactive LRU and geography-blind
	// push at the same total capacity.
	if hybrid.HitRatio <= lru.HitRatio {
		t.Fatalf("hybrid %.4f not above LRU %.4f", hybrid.HitRatio, lru.HitRatio)
	}
	if hybrid.HitRatio <= pop.HitRatio {
		t.Fatalf("hybrid %.4f not above pop-push %.4f", hybrid.HitRatio, pop.HitRatio)
	}
	if hybrid.Hits+hybrid.OriginEgress != hybrid.Requests {
		t.Fatal("hybrid accounting broken")
	}
}

func TestHybridRequiresPredictions(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(cat, Config{Requests: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(PolicyHybrid, 8); err == nil {
		t.Fatal("hybrid without predictions accepted")
	}
}

func TestPerCountryAccounting(t *testing.T) {
	cat, sim := testSim(t, 40_000)
	r, err := sim.Run(PolicyOracle, 64)
	if err != nil {
		t.Fatal(err)
	}
	var reqSum, hitSum int64
	for c := range r.CountryRequests {
		if r.CountryHits[c] > r.CountryRequests[c] {
			t.Fatalf("country %d has more hits than requests", c)
		}
		reqSum += r.CountryRequests[c]
		hitSum += r.CountryHits[c]
	}
	if reqSum != r.Requests || hitSum != r.Hits {
		t.Fatalf("per-country totals %d/%d disagree with aggregates %d/%d", reqSum, hitSum, r.Requests, r.Hits)
	}
	us := cat.World.MustByCode("US")
	if hr := r.CountryHitRatio(us); hr <= 0 || hr > 1 {
		t.Fatalf("US hit ratio %v", hr)
	}
	if r.CountryHitRatio(-1) != 0 {
		t.Fatal("out-of-range country should be 0")
	}
}

func TestTemporalLocalityHelpsLRU(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	hitAt := func(locality float64) float64 {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Requests = 40_000
		cfg.TemporalLocality = locality
		sim, err := NewSimulator(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(PolicyLRU, 32)
		if err != nil {
			t.Fatal(err)
		}
		return r.HitRatio
	}
	iid := hitAt(0)
	bursty := hitAt(0.5)
	if bursty <= iid {
		t.Fatalf("LRU at locality 0.5 (%.4f) not above IID (%.4f)", bursty, iid)
	}
}

func TestTemporalLocalityValidation(t *testing.T) {
	cat, err := synth.Generate(synth.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Requests = 10
	cfg.TemporalLocality = 1.5
	if _, err := NewSimulator(cat, cfg); err == nil {
		t.Fatal("locality 1.5 accepted")
	}
}

// TestLRUAgainstReferenceModel drives the O(1) LRU and a trivially
// correct reference (map + access clock, O(n) eviction) with the same
// random trace and demands identical hit/miss decisions.
func TestLRUAgainstReferenceModel(t *testing.T) {
	const capacity = 8
	fast := newLRU(capacity)
	ref := make(map[int]int) // key -> last access tick
	tick := 0
	lookupRef := func(v int) bool {
		tick++
		if _, ok := ref[v]; ok {
			ref[v] = tick
			return true
		}
		if len(ref) >= capacity {
			victim, oldest := -1, 1<<62
			for k, at := range ref {
				if at < oldest || (at == oldest && k < victim) {
					victim, oldest = k, at
				}
			}
			delete(ref, victim)
		}
		ref[v] = tick
		return false
	}
	src := newTestSrc(12345)
	for i := 0; i < 20000; i++ {
		v := src.Intn(24) // working set 3x capacity
		if fast.lookup(v) != lookupRef(v) {
			t.Fatalf("step %d: LRU disagrees with reference on key %d", i, v)
		}
	}
	if fast.len() != len(ref) {
		t.Fatalf("occupancy %d vs reference %d", fast.len(), len(ref))
	}
}
