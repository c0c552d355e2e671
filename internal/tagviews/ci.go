package tagviews

import (
	"fmt"

	"viewstags/internal/dist"
	"viewstags/internal/stats"
	"viewstags/internal/xrand"
)

// TagTopShareCI bootstraps a confidence interval for a tag's top-country
// share by resampling the tag's member videos. Small tags ("favela" has
// 58 videos at fixture scale) can show a dominant country by luck of a
// few uploads; the interval says how firmly the Fig. 3 claim is
// supported by the sample.
func (a *Analysis) TagTopShareCI(name string, reps int, level float64, seed uint64) (stats.CI, error) {
	s, ok := a.tags[name]
	if !ok {
		return stats.CI{}, fmt.Errorf("tagviews: unknown tag %q", name)
	}
	top := dist.ArgMax(s.Views)
	if top < 0 {
		return stats.CI{}, fmt.Errorf("tagviews: tag %q has no view mass", name)
	}

	// Collect the member videos' fields once.
	var fields [][]float64
	for i := range a.records {
		f := a.fields[i]
		if f == nil {
			continue
		}
		for _, t := range a.records[i].Tags {
			if t == name {
				fields = append(fields, f)
				break
			}
		}
	}
	if len(fields) == 0 {
		return stats.CI{}, fmt.Errorf("tagviews: tag %q has no reconstructable videos", name)
	}

	// The statistic: the (fixed) top country's share of the resampled
	// aggregate. Bootstrapping over indices keeps the per-video fields
	// intact (each video is one exchangeable unit).
	idx := make([]float64, len(fields))
	for i := range idx {
		idx[i] = float64(i)
	}
	statFn := func(sample []float64) float64 {
		var topMass, total float64
		for _, fi := range sample {
			f := fields[int(fi)]
			for c, x := range f {
				total += x
				if c == top {
					topMass += x
				}
			}
		}
		if total == 0 {
			return 0
		}
		return topMass / total
	}
	return stats.Bootstrap(xrand.NewSource(seed), idx, statFn, reps, level)
}
