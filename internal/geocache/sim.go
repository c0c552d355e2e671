package geocache

import (
	"fmt"

	"viewstags/internal/geo"
	"viewstags/internal/synth"
	"viewstags/internal/xrand"
)

// PolicyKind selects a placement/replacement policy.
type PolicyKind int

// Policies. Enums start at one so the zero value is invalid.
const (
	PolicyInvalid PolicyKind = iota
	// PolicyLRU: empty caches, reactive pull with LRU replacement.
	PolicyLRU
	// PolicyLFU: empty caches, reactive pull with LFU replacement.
	PolicyLFU
	// PolicyPopPush: every country statically preloaded with the
	// globally most-viewed videos (geography-blind push).
	PolicyPopPush
	// PolicyTagPush: each country statically preloaded with the videos
	// whose tag-predicted demand in that country is highest — the
	// paper's proposal.
	PolicyTagPush
	// PolicyOracle: each country preloaded using ground-truth
	// per-country demand (the unreachable upper bound for static push).
	PolicyOracle
	// PolicyHybrid: half the capacity statically preloaded by
	// tag-predicted demand, the other half a reactive LRU — the
	// deployment a provider would actually run, since push placement
	// cannot know about brand-new videos.
	PolicyHybrid
)

// String returns the policy name.
func (p PolicyKind) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyLFU:
		return "lfu"
	case PolicyPopPush:
		return "pop-push"
	case PolicyTagPush:
		return "tag-push"
	case PolicyOracle:
		return "oracle-push"
	case PolicyHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// SlotsPerCountry is each country cache's capacity in videos.
	SlotsPerCountry int
	// Requests is the request-stream length.
	Requests int
	// Seed drives request sampling.
	Seed uint64

	// TemporalLocality is the probability that a request repeats a
	// recent request from the same country instead of sampling the
	// stationary demand field. Real video traffic is bursty — this knob
	// quantifies how much of the push policies' advantage survives when
	// reactive caches can exploit recency (the ablation behind the
	// EXPERIMENTS.md validity note). 0 = IID stream.
	TemporalLocality float64
	// RecencyWindow is how many recent per-country requests the
	// temporal-locality re-draw picks from (default 256).
	RecencyWindow int
}

// DefaultConfig returns a medium-size simulation with an IID stream.
func DefaultConfig() Config {
	return Config{SlotsPerCountry: 64, Requests: 200_000, Seed: 404, RecencyWindow: 256}
}

// Result summarizes one policy's run.
type Result struct {
	Policy   PolicyKind
	Requests int64
	Hits     int64
	HitRatio float64
	// OriginEgress is the number of requests served from the origin
	// (= misses): the traffic a UGC provider pays for.
	OriginEgress int64

	// Per-country accounting, indexed by geo.CountryID.
	CountryRequests []int64
	CountryHits     []int64
}

// CountryHitRatio returns country c's hit ratio (0 when it saw no
// requests).
func (r *Result) CountryHitRatio(c geo.CountryID) float64 {
	if int(c) < 0 || int(c) >= len(r.CountryRequests) || r.CountryRequests[c] == 0 {
		return 0
	}
	return float64(r.CountryHits[c]) / float64(r.CountryRequests[c])
}

// String renders the result as a table row.
func (r Result) String() string {
	return fmt.Sprintf("%-11s requests=%d hits=%d hitRatio=%.4f originEgress=%d",
		r.Policy, r.Requests, r.Hits, r.HitRatio, r.OriginEgress)
}

// Simulator holds the shared pieces of an experiment: the catalog, the
// sampled request stream (identical across policies, so comparisons are
// paired), and optional predicted demand fields for PolicyTagPush.
type Simulator struct {
	cat      *synth.Served  // what PreloadAdvisory reads of the catalog
	truth    *synth.Catalog // the ground truth PolicyOracle ranks by
	requests []request
	// predicted[v] is the tag-predicted normalized view distribution of
	// video v (nil entries fall back to nothing — the video is never
	// push-placed by PolicyTagPush).
	predicted [][]float64
}

type request struct {
	country geo.CountryID
	video   int32
}

// NewSimulator samples a request stream of cfg.Requests (video, country)
// pairs from the catalog's ground-truth view fields: video ∝ total
// views, country ∝ the video's per-country views. The same stream is
// replayed against every policy.
func NewSimulator(cat *synth.Catalog, cfg Config) (*Simulator, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("geocache: non-positive request count %d", cfg.Requests)
	}
	if cfg.SlotsPerCountry < 0 {
		return nil, fmt.Errorf("geocache: negative capacity %d", cfg.SlotsPerCountry)
	}
	if cfg.TemporalLocality < 0 || cfg.TemporalLocality > 1 {
		return nil, fmt.Errorf("geocache: TemporalLocality %v outside [0,1]", cfg.TemporalLocality)
	}
	if cfg.RecencyWindow <= 0 {
		cfg.RecencyWindow = 256
	}
	src := xrand.NewSource(cfg.Seed)
	weights := make([]float64, len(cat.Videos))
	for i := range cat.Videos {
		weights[i] = float64(cat.Videos[i].TotalViews)
	}
	videoCat := xrand.NewCategorical(src.Fork("video"), weights)

	// Per-video country samplers are built lazily (most videos never get
	// requested in a finite stream).
	countrySamplers := make([]*xrand.Categorical, len(cat.Videos))
	countrySrc := src.Fork("country")

	s := &Simulator{cat: cat.Served(), truth: cat, requests: make([]request, cfg.Requests)}
	// Per-country recency rings for the temporal-locality re-draw.
	recent := make([][]int32, cat.World.N())
	localitySrc := src.Fork("locality")
	for r := range s.requests {
		v := videoCat.Draw()
		cs := countrySamplers[v]
		if cs == nil {
			w := make([]float64, len(cat.Videos[v].TrueViews))
			ok := false
			for c, n := range cat.Videos[v].TrueViews {
				w[c] = float64(n)
				if n > 0 {
					ok = true
				}
			}
			if !ok {
				// Zero-view video drawn (possible only when all weights
				// are zero); spread uniformly.
				for c := range w {
					w[c] = 1
				}
			}
			cs = xrand.NewCategorical(countrySrc.Fork(fmt.Sprintf("v%d", v)), w)
			countrySamplers[v] = cs
		}
		country := geo.CountryID(cs.Draw())
		video := int32(v)
		// Temporal locality: repeat a recent request in this country.
		if cfg.TemporalLocality > 0 && len(recent[country]) > 0 && localitySrc.Bernoulli(cfg.TemporalLocality) {
			video = recent[country][localitySrc.Intn(len(recent[country]))]
		}
		if cfg.TemporalLocality > 0 {
			ring := recent[country]
			if len(ring) >= cfg.RecencyWindow {
				ring = ring[1:]
			}
			recent[country] = append(ring, video)
		}
		s.requests[r] = request{country: country, video: video}
	}
	return s, nil
}

// SetPredictions installs tag-predicted per-video view distributions for
// PolicyTagPush. The slice is indexed by catalog video index; nil
// entries mean "no prediction".
func (s *Simulator) SetPredictions(pred [][]float64) error {
	if len(pred) != s.cat.N() {
		return fmt.Errorf("geocache: %d predictions for %d videos", len(pred), s.cat.N())
	}
	s.predicted = pred
	return nil
}

// Run replays the request stream against the given policy with the given
// per-country capacity and returns the aggregate result.
func (s *Simulator) Run(policy PolicyKind, slotsPerCountry int) (Result, error) {
	nC := s.cat.World.N()
	caches := make([]cache, nC)
	switch policy {
	case PolicyLRU:
		for c := range caches {
			caches[c] = newLRU(slotsPerCountry)
		}
	case PolicyLFU:
		for c := range caches {
			caches[c] = newLFU(slotsPerCountry)
		}
	case PolicyPopPush, PolicyTagPush, PolicyOracle:
		for c := range caches {
			caches[c] = newStatic(slotsPerCountry)
		}
		if err := s.push(policy, caches, slotsPerCountry); err != nil {
			return Result{}, err
		}
	case PolicyHybrid:
		pushSlots := slotsPerCountry / 2
		for c := range caches {
			caches[c] = &hybridCache{
				static:  newStatic(pushSlots),
				dynamic: newLRU(slotsPerCountry - pushSlots),
			}
		}
		if err := s.push(PolicyTagPush, staticHalves(caches), pushSlots); err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("geocache: unknown policy %d", int(policy))
	}

	res := Result{
		Policy:          policy,
		Requests:        int64(len(s.requests)),
		CountryRequests: make([]int64, nC),
		CountryHits:     make([]int64, nC),
	}
	for _, req := range s.requests {
		res.CountryRequests[req.country]++
		if caches[req.country].lookup(int(req.video)) {
			res.Hits++
			res.CountryHits[req.country]++
		}
	}
	res.OriginEgress = res.Requests - res.Hits
	if res.Requests > 0 {
		res.HitRatio = float64(res.Hits) / float64(res.Requests)
	}
	return res, nil
}

// staticHalves exposes the static halves of hybrid caches so push() can
// preload them through the shared cache interface.
func staticHalves(caches []cache) []cache {
	out := make([]cache, len(caches))
	for i, c := range caches {
		out[i] = c.(*hybridCache).static
	}
	return out
}

// push preloads static caches with the policy's advisory for each
// country: PreloadAdvisory, the online path's own selection, or for the
// oracle the catalog's ground-truth ranking, which no serving node has.
func (s *Simulator) push(policy PolicyKind, caches []cache, slots int) error {
	if slots <= 0 {
		return nil
	}
	var share []float64
	if policy == PolicyTagPush {
		if s.predicted == nil {
			return fmt.Errorf("geocache: PolicyTagPush requires SetPredictions")
		}
		share = make([]float64, len(s.predicted))
	}
	for c := range caches {
		for v := range share {
			share[v] = 0
			if p := s.predicted[v]; p != nil {
				share[v] = p[c]
			}
		}
		var top []int
		if policy == PolicyOracle {
			top = s.truth.TopInCountry(geo.CountryID(c), slots)
		} else {
			var err error
			if top, err = PreloadAdvisory(s.cat, share, policy, geo.CountryID(c), slots); err != nil {
				return err
			}
		}
		for _, v := range top {
			caches[c].preload(v)
		}
	}
	return nil
}

// Sweep runs every policy at each capacity in slots and returns results
// in (capacity-major, policy-minor) order — the data behind the E6
// hit-ratio-vs-capacity curves.
func (s *Simulator) Sweep(policies []PolicyKind, slots []int) ([]Result, error) {
	out := make([]Result, 0, len(policies)*len(slots))
	for _, sl := range slots {
		for _, p := range policies {
			r, err := s.Run(p, sl)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}
