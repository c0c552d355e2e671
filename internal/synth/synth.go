// Package synth generates the synthetic YouTube catalog that stands in
// for the paper's unrecoverable March-2011 crawl (see DESIGN.md §2).
//
// Every video gets: a YouTube-shaped 11-character id, a title, an upload
// country, a category, a tag set drawn from the internal/tags vocabulary,
// a heavy-tailed total view count, and a ground-truth per-country view
// field sampled from a mixture of (a) the global traffic prior, (b) an
// upload-country gravity component, and (c) the video's tags' affinities.
// From the ground truth the generator derives the quantized Map-Chart
// popularity vector pop(v) — the only geographic signal the paper's
// pipeline gets to see — and injects the two data pathologies the paper
// filters (§2): videos with no tags, and videos with an empty or corrupt
// popularity vector.
package synth

import (
	"fmt"
	"sync"

	"viewstags/internal/geo"
	"viewstags/internal/mapchart"
	"viewstags/internal/tags"
	"viewstags/internal/xrand"
)

// PopVectorState describes the health of a video's scraped popularity
// vector, mirroring the paper's filtering taxonomy.
type PopVectorState int

// Popularity-vector states. Enums start at one so the zero value is
// detectably unset.
const (
	PopStateInvalid PopVectorState = iota
	PopStateOK                     // complete, decodable vector
	PopStateEmpty                  // map chart absent (no data)
	PopStateCorrupt                // undecodable / wrong length
)

// String returns the state name.
func (s PopVectorState) String() string {
	switch s {
	case PopStateOK:
		return "ok"
	case PopStateEmpty:
		return "empty"
	case PopStateCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("PopVectorState(%d)", int(s))
	}
}

// Video is one ground-truth catalog entry.
type Video struct {
	Index      int    // dense catalog index
	ID         string // YouTube-shaped 11-char id
	Title      string
	Upload     geo.CountryID
	Category   string
	TagIDs     []int // vocabulary indices; empty for the untagged pathology
	TotalViews int64

	// TrueViews is the ground-truth per-country view field (sums to
	// TotalViews). The analysis pipeline never reads it; it exists to
	// score reconstruction quality. Empty for a video whose field its
	// Generator was told nothing reads (DrawReadFields).
	TrueViews []int64

	// PopVector is the quantized 0..61 Map-Chart vector derived from
	// TrueViews, all zeros when PopState is PopStateCorrupt, and empty
	// otherwise: PopStateEmpty, or a field not drawn.
	PopVector []int
	PopState  PopVectorState
}

// TagNames resolves the video's tag ids against the vocabulary.
func (v *Video) TagNames(voc *tags.Vocabulary) []string {
	out := make([]string, len(v.TagIDs))
	for i, id := range v.TagIDs {
		out[i] = voc.Name(id)
	}
	return out
}

// Config parameterizes catalog generation. The default values are
// calibrated so the filtered-dataset proportions track the paper's §2
// statistics (see TestT1FilteringRatios and EXPERIMENTS.md).
type Config struct {
	Videos    int    // catalog size before filtering
	VocabSize int    // tag vocabulary size
	Seed      uint64 // master seed

	// View-volume model: total views per video follow a bounded Pareto
	// with this exponent and range. Alpha near 2 gives the classic UGC
	// skew where the head video draws hundreds of millions of views.
	ViewsAlpha float64
	ViewsMin   int64
	ViewsMax   int64

	// Geographic mixture weights (normalized internally): how much of a
	// video's view field follows the global prior, the uploader's
	// country+language gravity, and the video's tags.
	WeightPrior   float64
	WeightGravity float64
	WeightTags    float64

	// Dirichlet jitter concentration: larger = view fields closer to
	// their mixture mean; smaller = noisier per-video geography.
	JitterConcentration float64

	// TopicDrift is the probability that a video's *topic* anchors on a
	// country other than its upload country (diaspora channels, topic
	// tourism: a US-uploaded K-pop compilation). Drifted videos are what
	// make tags a strictly better geographic marker than uploader
	// location — the paper's conjecture in generative form.
	TopicDrift float64

	// Pathology rates (paper §2: 6,736/1,063,844 untagged ≈ 0.63%;
	// (1,057,108−691,349)/1,063,844 ≈ 34.4% empty-or-corrupt pop vector).
	UntaggedRate   float64
	PopEmptyRate   float64
	PopCorruptRate float64

	TagSet tags.TagSetConfig
}

// DefaultConfig returns a paper-calibrated configuration generating n
// videos.
func DefaultConfig(n int) Config {
	return Config{
		Videos:              n,
		VocabSize:           vocabSizeFor(n),
		Seed:                20110301, // the crawl month
		ViewsAlpha:          1.5,      // bounded-Pareto tail giving ≈2×10⁵ mean views/video, the paper's ratio (1.73e11 / 691,349)
		ViewsMin:            50,
		ViewsMax:            viewsMaxFor(n),
		WeightPrior:         0.15,
		WeightGravity:       0.20,
		WeightTags:          0.65,
		TopicDrift:          0.30,
		JitterConcentration: 120,
		UntaggedRate:        0.00633, // 6,736 / 1,063,844
		PopEmptyRate:        0.24,
		PopCorruptRate:      0.104, // together ≈ 34.4% dropped for bad vectors
		TagSet:              tags.DefaultTagSetConfig(),
	}
}

// vocabSizeFor scales the vocabulary with the catalog the way the paper's
// numbers do: 705,415 unique tags over 1,063,844 videos ≈ 0.66 tags per
// video, floored so small test catalogs still get a usable vocabulary.
func vocabSizeFor(videos int) int {
	v := int(0.66 * float64(videos))
	if v < 400 {
		v = 400
	}
	return v
}

// viewsMaxFor scales the per-video view cap with catalog size so the
// head video's share of total views stays paper-like instead of one
// video dominating a small test catalog. The slope is calibrated on the
// paper itself: at its 1,063,844-video scale, 500·n ≈ 5.3×10⁸ — the view
// count of its most-viewed video (Justin Bieber – Baby) in March 2011.
func viewsMaxFor(videos int) int64 {
	max := int64(500) * int64(videos)
	if max > 800_000_000 {
		return 800_000_000
	}
	if max < 100_000 {
		return 100_000
	}
	return max
}

// Catalog is a fully generated synthetic world.
type Catalog struct {
	World  *geo.World
	Vocab  *tags.Vocabulary
	Videos []Video
	Config Config

	idOnce  sync.Once // guards the lazy id→index map; see ByID
	idIndex map[string]int
}

// youTubeCategories2011 is the category list of the GData API circa 2011.
var youTubeCategories2011 = []string{
	"Music", "Entertainment", "Comedy", "Film", "Sports", "Gaming",
	"News", "People", "Howto", "Education", "Tech", "Autos", "Animals",
	"Travel", "Nonprofit",
}

// Generate builds a catalog from cfg by draining a Generator into it,
// every video's field drawn. It is deterministic in cfg.Seed.
func Generate(cfg Config) (*Catalog, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	cat := g.Catalog()
	cat.Videos = make([]Video, cfg.Videos)
	for i := range cat.Videos {
		g.Next(&cat.Videos[i])
	}
	return cat, nil
}

// Generator produces a catalog's videos one at a time, in catalog order:
// the resumable form of Generate, for a caller that wants each video
// once (a daemon aggregating tag profiles at boot) and not the corpus.
//
// It is a two-stage pipeline. The first Next starts a producer goroutine
// that draws, a batch of videos ahead, everything that precedes a video's
// view field and the stream half of the field's Dirichlet draw; Next
// itself does the draw's arithmetic, spreads the views and derives the
// Map-Chart vector. Each RNG stream is read by one stage only, in catalog
// order, so the videos do not depend on how the two are scheduled
// (DESIGN.md §2).
// Close stops the producer; a Generator that is not drained must be
// closed. Not safe for concurrent use.
type Generator struct {
	cfg   Config
	world *geo.World
	voc   *tags.Vocabulary

	prior   []float64
	gravity [][]float64 // language-gravity vector per upload country

	// Producer stage: which fields it draws (DrawReadFields; nil = every
	// one), its streams, and world-sized scratch.
	reads                                      func(tagIDs []int) bool
	uploadCat                                  *xrand.Categorical
	viewSrc, tagSrc, geoSrc, pathSrc, titleSrc *xrand.Source
	field, affinity                            []float64
	title                                      []byte // the title being assembled

	// The ring between the stages: ringDepth batches circulate, so neither
	// channel (each of that capacity) ever blocks a send. full is closed by
	// the producer when it returns; stop tells it to, and done says it has.
	full, free chan *batch
	stop, done chan struct{}
	closed     bool // exhausted or Closed: Next returns false

	// Consumer stage (the caller's goroutine): the batch being handed out,
	// the spread sampler, whose stream every video's spread restarts from,
	// and world-sized scratch.
	cur              *batch
	pos              int
	spread           *xrand.Spread
	views, intensity []float64
}

const (
	// batchVideos is how many videos the producer draws per hand-over:
	// enough that the two channel operations a batch costs vanish beside
	// its draws.
	batchVideos = 32
	// ringDepth is the number of batches in circulation: one being read,
	// one being filled, two of slack for uneven videos. The ring is
	// ringDepth × batchVideos × (three country tables of float64 + a Video
	// + a tag set), ≈ 210 KB.
	ringDepth = 4
)

// draft is what the producer stage draws of one video.
type draft struct {
	// video is everything but TrueViews, PopVector and PopState. Its TagIDs
	// live in this ring slot's own array, redrawn into by the slot's next
	// video: Next copies them out and never hands the array on.
	video Video
	state PopVectorState // from the video's second pathology draw
	drawn bool           // whether its field row holds a draw (DrawReadFields)
}

// batch is one hand-over of the ring.
type batch struct {
	drafts []draft
	// Per draft, world-sized rows of its view field's Dirichlet draw: the
	// shapes, and the stream half's deviates and boost uniforms, which
	// Next finishes into the field in place (rows).
	shapes, fields, boosts []float64
}

// rows returns draft i's rows of b in a world of n countries.
func (b *batch) rows(i, n int) (shapes, field, boosts []float64) {
	return b.shapes[i*n : (i+1)*n], b.fields[i*n : (i+1)*n], b.boosts[i*n : (i+1)*n]
}

// NewGenerator validates cfg and builds the world and vocabulary the
// videos are drawn over.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Videos <= 0 {
		return nil, fmt.Errorf("synth: non-positive catalog size %d", cfg.Videos)
	}
	if cfg.ViewsAlpha <= 1 {
		return nil, fmt.Errorf("synth: ViewsAlpha must exceed 1, got %v", cfg.ViewsAlpha)
	}
	if cfg.ViewsMin <= 0 || cfg.ViewsMax <= cfg.ViewsMin {
		return nil, fmt.Errorf("synth: invalid view range [%d, %d]", cfg.ViewsMin, cfg.ViewsMax)
	}
	wSum := cfg.WeightPrior + cfg.WeightGravity + cfg.WeightTags
	if wSum <= 0 {
		return nil, fmt.Errorf("synth: mixture weights sum to %v", wSum)
	}
	for _, r := range []float64{cfg.UntaggedRate, cfg.PopEmptyRate, cfg.PopCorruptRate} {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("synth: pathology rate %v outside [0,1]", r)
		}
	}
	if cfg.TopicDrift < 0 || cfg.TopicDrift > 1 {
		return nil, fmt.Errorf("synth: TopicDrift %v outside [0,1]", cfg.TopicDrift)
	}

	world := geo.DefaultWorld()
	root := xrand.NewSource(cfg.Seed)
	voc, err := tags.NewVocabulary(world, root.Fork("vocab"), tags.DefaultConfig(cfg.VocabSize))
	if err != nil {
		return nil, fmt.Errorf("synth: vocabulary: %w", err)
	}

	n := world.N()
	scratch := make([]float64, 4*n)
	g := &Generator{
		cfg: cfg, world: world, voc: voc,
		prior:    world.Traffic(),
		viewSrc:  root.Fork("views"),
		tagSrc:   root.Fork("tagsets"),
		geoSrc:   root.Fork("geo"),
		pathSrc:  root.Fork("pathology"),
		titleSrc: root.Fork("title"),
		field:    scratch[0*n : 1*n], affinity: scratch[1*n : 2*n],
		views: scratch[2*n : 3*n], intensity: scratch[3*n : 4*n],
	}
	g.uploadCat = xrand.NewCategorical(root.Fork("upload"), g.prior)
	// Fork reads only its parent's seed, so this is one fixed stream:
	// every video's spread restarts from it (DESIGN.md §2).
	g.spread = xrand.NewSpread(*g.geoSrc.Fork("spread"))
	// Language-gravity vectors are shared per country; precompute.
	g.gravity = make([][]float64, n)
	for c := range g.gravity {
		g.gravity[c] = gravityVector(world, geo.CountryID(c))
	}
	return g, nil
}

// Catalog returns an empty catalog over the generator's world, vocabulary
// and configuration, for the caller to fill with the videos it keeps.
func (g *Generator) Catalog() *Catalog {
	return &Catalog{World: g.world, Vocab: g.voc, Config: g.cfg}
}

// DrawReadFields tells the generator which view fields its caller reads:
// those of the tagged videos in PopStateOK whose tag ids reads accepts.
// Every other video then comes out of Next with no TrueViews and, in
// PopStateOK, no PopVector: its Dirichlet draw is skipped
// (xrand.Source.SkipDirichlet), so every stream advances as before and
// every other video is what it would have been. Without a call, every
// field is drawn (Generate). reads runs on the producer stage; call this
// before the first Next.
func (g *Generator) DrawReadFields(reads func(tagIDs []int) bool) {
	if g.stop != nil {
		panic("synth: DrawReadFields after the first Next")
	}
	g.reads = reads
}

// Close stops the producer stage and waits for it to exit. It is
// idempotent; after it Next returns false.
func (g *Generator) Close() {
	if g.closed {
		return
	}
	g.closed, g.cur = true, nil
	if g.stop != nil {
		close(g.stop)
		<-g.done
	}
}

// start fills the ring with empty batches and launches the producer.
func (g *Generator) start() {
	n := g.world.N()
	g.full, g.free = make(chan *batch, ringDepth), make(chan *batch, ringDepth)
	g.stop, g.done = make(chan struct{}), make(chan struct{})
	for i := 0; i < ringDepth; i++ {
		g.free <- &batch{
			drafts: make([]draft, 0, batchVideos),
			shapes: make([]float64, batchVideos*n),
			fields: make([]float64, batchVideos*n),
			boosts: make([]float64, batchVideos*n),
		}
	}
	go g.produce()
}

// produce is the producer stage: it drafts the catalog in order, a batch
// at a time, until the last video or a Close.
func (g *Generator) produce() {
	defer close(g.done)
	defer close(g.full)
	for next := 0; next < g.cfg.Videos; {
		var b *batch
		select {
		case b = <-g.free:
		case <-g.stop:
			return
		}
		b.drafts = b.drafts[:0]
		for ; next < g.cfg.Videos && len(b.drafts) < batchVideos; next++ {
			i := len(b.drafts)
			b.drafts = b.drafts[:i+1]
			g.draft(b, i, next)
		}
		g.full <- b
	}
}

// draft draws video index into b's draft i and its rows: the draft, the
// view field's Dirichlet shapes and, when something reads the field, the
// stream half of its draw. It consumes the upload, title, views, tag-set,
// pathology and geo streams in the order the videos have always consumed
// them: each stream's own sequence of draws, video after video.
func (g *Generator) draft(b *batch, i, index int) {
	cfg, voc := &g.cfg, g.voc
	d := &b.drafts[i]
	v := &d.video
	tagIDs := v.TagIDs[:0]
	*v = Video{Index: index, TagIDs: tagIDs}
	v.ID = videoID(cfg.Seed, v.Index)
	v.Upload = geo.CountryID(g.uploadCat.Draw())
	v.Category = youTubeCategories2011[g.titleSrc.Intn(len(youTubeCategories2011))]
	v.TotalViews = boundedPareto(g.viewSrc, cfg.ViewsAlpha, cfg.ViewsMin, cfg.ViewsMax)

	// Topic drift: most videos' topical tags anchor at home, but a
	// fraction anchor elsewhere (the uploader's subject, not their
	// location). Gravity still follows the upload country.
	topic := v.Upload
	if cfg.TopicDrift > 0 && g.tagSrc.Bernoulli(cfg.TopicDrift) {
		topic = geo.CountryID(g.uploadCat.Draw())
	}
	if !g.pathSrc.Bernoulli(cfg.UntaggedRate) {
		v.TagIDs = voc.SampleTagSetInto(tagIDs, g.tagSrc, topic, cfg.TagSet)
	}
	v.Title = g.synthTitle(v)
	// The second pathology draw decides whether the geo draw is made.
	// pathSrc and geoSrc are separate streams read only here, so which of
	// the two is drawn first does not change what either yields.
	d.state = g.popState(g.pathSrc.Float64())
	d.drawn = g.reads == nil || len(v.TagIDs) > 0 && d.state == PopStateOK && g.reads(v.TagIDs)

	// Mixture mean over countries.
	mean := mixtureMean(*cfg, g.prior, g.gravity[v.Upload], voc, v.TagIDs, g.field, g.affinity)
	// Dirichlet jitter around the mean keeps per-video variety.
	shapes, field, boosts := b.rows(i, g.world.N())
	for c := range shapes {
		a := cfg.JitterConcentration * mean[c]
		if a < 1e-4 {
			a = 1e-4 // keep Gamma well-defined for near-zero components
		}
		shapes[c] = a
	}
	if d.drawn {
		g.geoSrc.DirichletDraws(shapes, field, boosts)
	} else {
		g.geoSrc.SkipDirichlet(shapes)
	}
}

// Next overwrites v with the next video and reports whether there was
// one (false once cfg.Videos have been produced, or after Close). v's
// TagIDs backing array is reused when the tag set fits it, its TrueViews
// and PopVector arrays when they hold a country table's worth: a caller
// that passes the same Video every time allocates none of the three, a
// caller that passes a zero Video (Generate) gets slices it owns, which
// nothing the generator does later writes to. Either way the RNG calls,
// and so the videos, are the same. A video whose field was not drawn
// costs Next neither the Dirichlet arithmetic nor the spread nor the
// Map-Chart vector.
func (g *Generator) Next(v *Video) bool {
	if g.closed {
		return false
	}
	if g.cur == nil || g.pos == len(g.cur.drafts) {
		if g.cur == nil {
			g.start() // the first Next
		} else {
			g.free <- g.cur
		}
		b, ok := <-g.full
		if !ok {
			g.Close()
			return false
		}
		g.cur, g.pos = b, 0
	}
	n := g.world.N()
	d := &g.cur.drafts[g.pos]
	shapes, field, boosts := g.cur.rows(g.pos, n)
	g.pos++

	tagIDs, trueViews, pop := v.TagIDs, v.TrueViews, v.PopVector
	*v = d.video
	v.TagIDs = append(tagIDs[:0], d.video.TagIDs...) // nil for an untagged video unless the caller lent an array
	if d.drawn {
		xrand.FinishDirichlet(shapes, field, boosts)
		// Distribute the total across countries by the drawn field, exactly
		// (counts sum to TotalViews).
		if cap(trueViews) < n {
			trueViews = make([]int64, n)
		}
		v.TrueViews = g.spread.Into(trueViews[:n], field, v.TotalViews)
	} else {
		v.TrueViews = trueViews[:0]
	}

	g.assignPopVector(v, pop, d.state, d.drawn)
	return true
}

// popState is the popularity-vector state u, a video's draw from the
// pathology stream, gives.
func (g *Generator) popState(u float64) PopVectorState {
	switch {
	case u < g.cfg.PopEmptyRate:
		return PopStateEmpty
	case u < g.cfg.PopEmptyRate+g.cfg.PopCorruptRate:
		return PopStateCorrupt
	}
	return PopStateOK
}

// mixtureMean fills field with the normalized mixture of prior, gravity
// and tag affinities and returns it; aff is scratch for one tag's
// affinity at a time.
func mixtureMean(cfg Config, prior, gravity []float64, voc *tags.Vocabulary, tagIDs []int, field, aff []float64) []float64 {
	wSum := cfg.WeightPrior + cfg.WeightGravity + cfg.WeightTags
	wp, wg, wt := cfg.WeightPrior/wSum, cfg.WeightGravity/wSum, cfg.WeightTags/wSum
	if len(tagIDs) == 0 {
		// Untagged videos: renormalize onto prior+gravity.
		total := wp + wg
		wp, wg, wt = wp/total, wg/total, 0
	}
	for c := range field {
		field[c] = wp*prior[c] + wg*gravity[c]
	}
	if wt > 0 {
		// Rank-weighted tag mixture: a video's geography follows its
		// leading (topical) tags far more than its trailing descriptive
		// ones, so tag k gets harmonic weight 1/(k+1).
		var hSum float64
		for k := range tagIDs {
			hSum += 1 / float64(k+1)
		}
		for k, tid := range tagIDs {
			per := wt * (1 / float64(k+1)) / hSum
			voc.AffinityInto(aff, tid)
			for c := range field {
				field[c] += per * aff[c]
			}
		}
	}
	return field
}

// gravityVector is the uploader-locality component: most mass on the
// upload country, the rest on its language peers by traffic share.
func gravityVector(world *geo.World, upload geo.CountryID) []float64 {
	const selfMass = 0.70
	out := make([]float64, world.N())
	peers := world.LanguagePeers(world.Country(upload).Language)
	var peerTraffic float64
	for _, p := range peers {
		if p != upload {
			peerTraffic += world.TrafficOf(p)
		}
	}
	out[upload] = selfMass
	rest := 1 - selfMass
	if peerTraffic > 0 {
		for _, p := range peers {
			if p != upload {
				out[p] += rest * world.TrafficOf(p) / peerTraffic
			}
		}
	} else {
		out[upload] += rest
	}
	return out
}

// assignPopVector sets v's popularity-vector state and computes its
// Map-Chart vector from the ground-truth views, or injects one of the
// paper's two popularity-vector pathologies (empty map / corrupt vector),
// or — in PopStateOK with no field drawn — leaves it empty. pop is the
// backing array to reuse when it holds a country table's worth.
func (g *Generator) assignPopVector(v *Video, pop []int, state PopVectorState, drawn bool) {
	v.PopState = state
	if state == PopStateEmpty || state == PopStateOK && !drawn {
		v.PopVector = pop[:0] // no vector; nil unless the caller lent an array
		return
	}
	if n := g.world.N(); cap(pop) < n {
		pop = make([]int, n)
	} else {
		pop = pop[:n]
	}
	v.PopVector = pop
	if state == PopStateCorrupt {
		// A corrupt vector is present but useless: the map rendered but
		// carried no data ("incorrect popularity vector" in §2's terms),
		// which densifies to all zeros downstream.
		clear(pop)
		return
	}
	for c, x := range v.TrueViews {
		g.views[c] = float64(x)
	}
	if _, err := mapchart.IntensityInto(g.intensity, g.views, g.prior); err != nil {
		// Lengths come from the same world; a mismatch is a bug.
		panic("synth: intensity: " + err.Error())
	}
	mapchart.QuantizeInto(pop, g.intensity, mapchart.MaxIntensity)
}
