package scenario

import "fmt"

// metricValue resolves one SLO's measured value from the report.
// Cluster metrics read the scrape-derived block; stream metrics read
// the collector snapshot of the named stream. A declared SLO over a
// stream that never flowed (nil) scores the zero stream, so a
// "throughput min" bound fails loudly instead of vacuously passing.
// observed is false when nothing stands behind the value — a latency
// quantile over a stream that served no request (every one failed, was
// shed, or none was sent: the 0 is not a latency), or a recovery the run
// never saw complete — and such a row fails whatever its bound.
func metricValue(rep *Report, o *SLO) (v float64, observed bool) {
	if o.Stream == "cluster" {
		switch o.Metric {
		case MetricStaleness:
			return float64(rep.Cluster.MaxStaleness), true
		case MetricRecoverySecs:
			return rep.Cluster.WorstRecovery, rep.Cluster.WorstRecovery >= 0
		}
		return 0, true
	}
	var s Stream
	switch o.Stream {
	case "read":
		if rep.Read != nil {
			s = *rep.Read
		}
	case "write":
		if rep.Write != nil {
			s = *rep.Write
		}
	}
	served := s.Requests-s.Errors-s.Shed > 0
	switch o.Metric {
	case MetricP50:
		return s.Latency.P50Ms, served
	case MetricP90:
		return s.Latency.P90Ms, served
	case MetricP99:
		return s.Latency.P99Ms, served
	case MetricErrorRate:
		return s.ErrorRate(), true
	case MetricShedRate:
		return s.ShedRate(), true
	case MetricThroughput:
		return s.ServedPerSec(), true
	}
	return 0, true
}

// score fills the report's scorecard and overall pass verdict from the
// spec's SLOs. A row whose metric was never observed (see metricValue)
// fails regardless of bound.
func score(rep *Report) {
	rep.Scorecard = rep.Scorecard[:0]
	rep.Pass = true
	for i := range rep.Spec.SLOs {
		o := &rep.Spec.SLOs[i]
		v, observed := metricValue(rep, o)
		row := ScoreRow{Name: o.Name, Stream: o.Stream, Metric: o.Metric, Value: v, Pass: true,
			WorstTrace: attributeTrace(rep.Traces, o)}
		switch {
		case o.Max != nil && o.Min != nil:
			row.Bound = fmt.Sprintf("min %g, max %g", *o.Min, *o.Max)
			row.Pass = v >= *o.Min && v <= *o.Max
		case o.Max != nil:
			row.Bound = fmt.Sprintf("max %g", *o.Max)
			row.Pass = v <= *o.Max
		case o.Min != nil:
			row.Bound = fmt.Sprintf("min %g", *o.Min)
			row.Pass = v >= *o.Min
		}
		if !observed {
			row.Pass = false
		}
		if !row.Pass {
			rep.Pass = false
		}
		rep.Scorecard = append(rep.Scorecard, row)
	}
}

// Scorecard renders the pass/fail table for humans — one line per SLO,
// verdict first, then the run verdict.
func Scorecard(rep *Report) string {
	out := fmt.Sprintf("scenario %s: scorecard\n", rep.Scenario)
	for i := range rep.Scorecard {
		row := &rep.Scorecard[i]
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL"
		}
		line := fmt.Sprintf("  %-4s %-16s %-7s %-18s value=%.4g (%s)",
			verdict, row.Name, row.Stream, row.Metric, row.Value, row.Bound)
		if row.WorstTrace != "" {
			line += " worst-trace=" + row.WorstTrace
		}
		out += line + "\n"
	}
	if rep.Pass {
		out += "  => PASS: all SLOs met\n"
	} else {
		out += "  => FAIL: SLO breach\n"
	}
	return out
}
