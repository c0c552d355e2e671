package geocache

import (
	"fmt"

	"viewstags/internal/geo"
	"viewstags/internal/synth"
)

// PreloadAdvisory answers the online form of the push-placement
// question a per-country edge cache asks at provisioning time: "which
// videos should I warm my slots with?" It returns the catalog indices
// the given push policy would preload into country c's cache,
// highest-demand first. Simulator.push installs what this returns, so
// the HTTP advisory endpoint and the offline simulation can never
// disagree.
//
// share is the tag-predicted share of each video's views in country c
// (indexed by catalog video index, not positive = unpredicted: one column
// of profilestore.PredictCatalog, or PredictColumn); it is only consulted
// for PolicyTagPush. Reactive policies (LRU/LFU/hybrid) have no push set
// and are rejected, and so is PolicyOracle: it ranks by ground-truth
// demand, which a served catalog does not carry — only the Simulator,
// handed the research catalog, runs it.
func PreloadAdvisory(cat *synth.Served, share []float64, policy PolicyKind, country geo.CountryID, slots int) ([]int, error) {
	if int(country) < 0 || int(country) >= cat.World.N() {
		return nil, fmt.Errorf("geocache: country %d out of range", int(country))
	}
	if slots < 0 {
		return nil, fmt.Errorf("geocache: negative slot budget %d", slots)
	}
	if slots == 0 {
		return nil, nil
	}
	switch policy {
	case PolicyPopPush:
		return cat.TopByViews(slots), nil
	case PolicyOracle:
		return nil, fmt.Errorf("geocache: %v needs ground-truth demand, unavailable to a serving node; it is an offline baseline (run cmd/cachesim)", policy)
	case PolicyTagPush:
		if share == nil {
			return nil, fmt.Errorf("geocache: PolicyTagPush requires predictions")
		}
		if len(share) != cat.N() {
			return nil, fmt.Errorf("geocache: %d predictions for %d videos", len(share), cat.N())
		}
		// Demand score: predicted share × total views.
		return synth.TopK(cat.N(), slots, func(v int) (float64, bool) {
			return share[v] * float64(cat.TotalViews[v]), share[v] > 0
		}), nil
	default:
		return nil, fmt.Errorf("geocache: policy %v has no push set", policy)
	}
}

// ParsePolicy resolves a policy name as used on the wire ("lru", "lfu",
// "pop-push", "tag-push", "oracle-push", "hybrid").
func ParsePolicy(name string) (PolicyKind, error) {
	for _, p := range []PolicyKind{
		PolicyLRU, PolicyLFU, PolicyPopPush, PolicyTagPush, PolicyOracle, PolicyHybrid,
	} {
		if p.String() == name {
			return p, nil
		}
	}
	return PolicyInvalid, fmt.Errorf("geocache: unknown policy %q", name)
}
