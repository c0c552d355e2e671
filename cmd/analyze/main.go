// Command analyze reproduces the paper's dataset characterization (§2 —
// experiment T1), prints the top-tag table with geographic profiles, and
// optionally runs the E4 reconstruction-fidelity sweep over Alexa
// estimator noise.
//
// Usage:
//
//	analyze -synth 50000                 # synthetic end-to-end run
//	analyze -in dataset.jsonl.gz         # analyze a crawled dataset
//	analyze -synth 20000 -sweep          # E4 noise sweep
//	analyze -synth 20000 -tag favela     # one tag's profile + map
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"viewstags/internal/alexa"
	"viewstags/internal/dist"
	"viewstags/internal/pipeline"
	"viewstags/internal/reconstruct"
	"viewstags/internal/report"
	"viewstags/internal/stats"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		synthN  = flag.Int("synth", 0, "generate a synthetic catalog of this size")
		in      = flag.String("in", "", "crawled dataset file (.jsonl/.jsonl.gz)")
		seed    = flag.Uint64("seed", 20110301, "synthetic generation seed")
		sigma   = flag.Float64("alexa-noise", 0.10, "Alexa estimator noise σ")
		topK    = flag.Int("top", 15, "top tags to display")
		tag     = flag.String("tag", "", "print one tag's profile and world map")
		country = flag.String("country", "", "print one country's tag-consumption profile (ISO code)")
		sweep   = flag.Bool("sweep", false, "run the E4 reconstruction sweep over estimator noise")
		evalE5  = flag.Bool("eval", false, "run the E5 tag-predictor evaluation")
		mdPath  = flag.String("md", "", "also write a Markdown run report to this path")
	)
	flag.Parse()

	if (*synthN == 0) == (*in == "") {
		return fmt.Errorf("exactly one of -synth or -in is required")
	}
	if *topK <= 0 {
		return fmt.Errorf("-top must be positive, got %d", *topK)
	}

	acfg := alexa.DefaultConfig()
	acfg.NoiseSigma = *sigma
	var res *pipeline.Result
	var err error
	if *synthN > 0 {
		res, err = pipeline.FromSynthetic(*synthN, *seed, acfg)
	} else {
		res, err = pipeline.FromFile(*in, acfg)
	}
	if err != nil {
		return err
	}

	printT1(res)
	if *mdPath != "" {
		if err := writeMarkdownReport(res, *mdPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *mdPath)
	}

	if *tag != "" {
		return printTag(res, *tag)
	}
	if *country != "" {
		return printCountry(res, *country)
	}
	if *sweep {
		if res.Catalog == nil {
			return fmt.Errorf("-sweep needs -synth (ground truth required)")
		}
		return sweepE4(res.Catalog)
	}
	if *evalE5 {
		return runE5(res)
	}
	return printTopTags(res, *topK)
}

// printT1 prints the §2 dataset table (experiment T1).
func printT1(res *pipeline.Result) {
	r := res.Clean.Report
	uniqueTags, views := res.Clean.UniqueTags()
	t := report.NewTable("T1: dataset statistic", "value", "paper (§2)")
	t.AddRow("crawled videos", strconv.Itoa(r.Crawled), "1,063,844")
	t.AddRow("dropped: no tags", strconv.Itoa(r.Untagged), "6,736")
	t.AddRow("dropped: missing/empty pop vector", strconv.Itoa(r.NoPopVector+r.BadPopVector), "~365,759")
	t.AddRow("kept videos", strconv.Itoa(r.Kept), "691,349")
	t.AddRow("unique tags (kept)", strconv.Itoa(uniqueTags), "705,415")
	t.AddRow("total views (kept)", strconv.FormatInt(views, 10), "173,288,616,473")
	t.AddRowf("drop rate\t%.1f%%\t35.0%%", 100*r.DropRate())
	if err := t.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "analyze: render:", err)
	}
	fmt.Println()
}

func printTopTags(res *pipeline.Result, k int) error {
	t := report.NewTable("rank", "tag", "videos", "views", "top country", "top share", "eff. countries", "spread", "JS to traffic")
	for i, p := range res.Analysis.TopTags(k) {
		t.AddRowf("%d\t%s\t%d\t%.0f\t%s\t%.1f%%\t%.1f\t%s\t%.3f",
			i+1, p.Name, p.Videos, p.TotalViews,
			res.World.Country(p.TopCountry).Code, 100*p.TopShare,
			p.EffectiveCountries, p.Spread, p.JSToTraffic)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	census := res.Analysis.SpreadCensus()
	fmt.Printf("\nspread census over %d tags: local=%d regional=%d global=%d\n",
		res.Analysis.NumTags(), census[dist.SpreadLocal], census[dist.SpreadRegional], census[dist.SpreadGlobal])
	return nil
}

func printTag(res *pipeline.Result, name string) error {
	p, ok := res.Analysis.TagProfile(name)
	if !ok {
		return fmt.Errorf("tag %q not in dataset", name)
	}
	fmt.Printf("tag %q: %d videos, %.0f views, top=%s (%.1f%%), eff=%.1f countries, spread=%s, JS-to-traffic=%.3f\n\n",
		p.Name, p.Videos, p.TotalViews, res.World.Country(p.TopCountry).Code,
		100*p.TopShare, p.EffectiveCountries, p.Spread, p.JSToTraffic)
	m, err := report.WorldMap(res.World, p.Views, fmt.Sprintf("views(%s) per country", name))
	if err != nil {
		return err
	}
	fmt.Println(m)
	bars, err := report.CountryBars(res.World, p.Views, 10)
	if err != nil {
		return err
	}
	fmt.Println(bars)
	return nil
}

// writeMarkdownReport emits a self-contained paper-vs-measured record of
// this run (the mechanical form of EXPERIMENTS.md's T1/F2/F3 sections).
func writeMarkdownReport(res *pipeline.Result, path string) error {
	m := report.NewMarkdown("viewstags run report")

	r := res.Clean.Report
	uniqueTags, views := res.Clean.UniqueTags()
	m.Section("T1 — dataset statistics (paper §2)")
	m.Table([]string{"statistic", "measured", "paper"}, [][]string{
		{"crawled videos", strconv.Itoa(r.Crawled), "1,063,844"},
		{"dropped: no tags", strconv.Itoa(r.Untagged), "6,736"},
		{"dropped: bad pop vector", strconv.Itoa(r.NoPopVector + r.BadPopVector), "~365,759"},
		{"kept videos", strconv.Itoa(r.Kept), "691,349"},
		{"unique tags", strconv.Itoa(uniqueTags), "705,415"},
		{"total views", strconv.FormatInt(views, 10), "173,288,616,473"},
		{"drop rate", fmt.Sprintf("%.1f%%", 100*r.DropRate()), "35.0%"},
	})

	m.Section("F2/F3 — tag geography (paper Figs. 2–3)")
	rows := make([][]string, 0, 8)
	for _, name := range []string{"pop", "music", "favela", "samba", "kpop"} {
		p, ok := res.Analysis.TagProfile(name)
		if !ok {
			continue
		}
		rows = append(rows, []string{
			name, strconv.Itoa(p.Videos),
			res.World.Country(p.TopCountry).Code,
			fmt.Sprintf("%.1f%%", 100*p.TopShare),
			p.Spread.String(),
			fmt.Sprintf("%.3f", p.JSToTraffic),
		})
	}
	m.Table([]string{"tag", "videos", "top country", "top share", "spread", "JS to traffic"}, rows)

	census := res.Analysis.SpreadCensus()
	m.Para("Spread census over %d tags: %d local, %d regional, %d global.",
		res.Analysis.NumTags(), census[dist.SpreadLocal], census[dist.SpreadRegional], census[dist.SpreadGlobal])

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	_, err = m.WriteTo(f)
	return err
}

// printCountry prints the dual view the title names: the distribution of
// views over tags within one country.
func printCountry(res *pipeline.Result, code string) error {
	id, ok := res.World.ByCode(code)
	if !ok {
		return fmt.Errorf("unknown country code %q", code)
	}
	p, err := res.Analysis.CountryProfile(id, 15)
	if err != nil {
		return err
	}
	fmt.Printf("country %s (%s): %.0f tag-views over %d distinct tags, Gini %.3f, entropy %.2f bits\n\n",
		code, res.World.Country(id).Name, p.TagViews, p.DistinctTags, p.Gini, p.Entropy)
	t := report.NewTable("rank", "tag", "views here", "share of country")
	for i, ts := range p.TopTags {
		t.AddRowf("%d\t%s\t%.0f\t%.2f%%", i+1, ts.Name, ts.Views, 100*ts.Share)
	}
	return t.Render(os.Stdout)
}

// sweepE4 reproduces experiment E4: reconstruction fidelity vs Alexa
// estimator noise.
func sweepE4(cat *synth.Catalog) error {
	t := report.NewTable("E4: noise σ", "mean JS", "p90 JS", "top-1 match")
	for _, sigma := range []float64{0, 0.1, 0.2, 0.4, 0.8} {
		pyt, err := alexa.Estimate(cat.World, alexa.Config{NoiseSigma: sigma, Seed: 2011})
		if err != nil {
			return err
		}
		var js []float64
		matches, n := 0, 0
		for i := range cat.Videos {
			v := &cat.Videos[i]
			if v.PopState != synth.PopStateOK || v.TotalViews < 1000 {
				continue
			}
			rec, err := reconstruct.Views(v.PopVector, pyt, v.TotalViews)
			if err != nil {
				continue
			}
			q, err := reconstruct.Score(rec, v.TrueViews)
			if err != nil {
				return err
			}
			js = append(js, q.JS)
			if q.TopMatch {
				matches++
			}
			n++
		}
		if n == 0 {
			return fmt.Errorf("no scorable videos")
		}
		t.AddRowf("%.2f\t%.4f\t%.4f\t%.1f%%",
			sigma, stats.Mean(js), stats.Quantile(js, 0.9), 100*float64(matches)/float64(n))
	}
	return t.Render(os.Stdout)
}

// runE5 reproduces experiment E5: the tag predictor vs baselines.
func runE5(res *pipeline.Result) error {
	t := report.NewTable("E5: weighting", "JS tags", "JS prior", "JS upload", "top1 tags", "top1 prior", "top1 upload")
	for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
		cfg := tagviews.DefaultEvalConfig()
		cfg.Weighting = w
		r, err := tagviews.Evaluate(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt, cfg)
		if err != nil {
			return err
		}
		t.AddRowf("%s\t%.4f\t%.4f\t%.4f\t%.3f\t%.3f\t%.3f",
			w, r.TagJS, r.PriorJS, r.UploadJS, r.TagTop1, r.PriorTop1, r.UploadTop1)
	}
	return t.Render(os.Stdout)
}
