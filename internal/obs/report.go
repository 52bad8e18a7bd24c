package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// ReadMetricsJSON parses a flexminer-metrics/v1 document, rejecting other
// schemas.
func ReadMetricsJSON(r io.Reader) (*Metrics, error) {
	var doc Metrics
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: parse metrics: %w", err)
	}
	if doc.Schema != MetricsSchema {
		return nil, fmt.Errorf("obs: metrics schema %q, want %q", doc.Schema, MetricsSchema)
	}
	return &doc, nil
}

// RenderReport writes a markdown dashboard for one run from its metrics
// artifact and (optionally, may be nil) its time-series artifact: phase
// timers, the cycle-breakdown attribution table per engine prefix, every
// counter grouped by top-level prefix, and a time-series summary. The output
// is deterministic — sections and rows are emitted in sorted order — so
// reports diff cleanly across runs.
func RenderReport(w io.Writer, m *Metrics, ts *Timeseries) error {
	bw := &errWriter{w: w}
	bw.printf("# FlexMiner run report\n\n")
	bw.printf("Source: `%s`", m.Schema)
	if ts != nil {
		bw.printf(" + `%s` (window %d, %d samples)", ts.Schema, ts.Window, len(ts.Samples))
	}
	bw.printf("\n")

	if len(m.Phases) > 0 {
		bw.printf("\n## Phases\n\n| phase | ticks | share |\n|---|---:|---:|\n")
		var total int64
		for _, p := range m.Phases {
			if p.End >= 0 {
				total += p.Dur
			}
		}
		for _, p := range m.Phases {
			if p.End < 0 {
				bw.printf("| %s | (open) | |\n", p.Name)
				continue
			}
			bw.printf("| %s | %d | %s |\n", p.Name, p.Dur, pct(p.Dur, total))
		}
	}

	renderBreakdowns(bw, m.Counters)
	renderHistograms(bw, m.Histograms)
	renderLabeledCounters(bw, m.LabeledCounters)
	renderCounterGroups(bw, m.Counters)
	renderTimeseries(bw, ts)
	return bw.err
}

// HistogramQuantile returns the estimated q-quantile (0 < q <= 1) of one
// exported series: the upper bound of the first bucket at which the
// cumulative count reaches ceil(q * count). Because buckets are log2-spaced
// the estimate is an upper bound with at most 2x resolution error — the
// standard Prometheus histogram_quantile trade, made deterministic by never
// interpolating. The +Inf bucket reports the largest finite bound (there is
// no meaningful upper bound to print). Returns 0 for an empty series.
func HistogramQuantile(bounds []int64, s HistogramSeries, q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if float64(target) < q*float64(s.Count) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1] // +Inf bucket: report the largest finite bound
}

// renderHistograms emits one latency table per histogram family: a row per
// series (per tenant on the serving path) with count, mean and p50/p95/p99
// upper-bound estimates.
func renderHistograms(bw *errWriter, hists map[string]HistogramSnapshot) {
	for _, name := range slices.Sorted(maps.Keys(hists)) {
		fam := hists[name]
		bw.printf("\n## Histogram: %s\n\n", name)
		if fam.Help != "" {
			bw.printf("%s\n\n", fam.Help)
		}
		bw.printf("| %s | count | mean | p50 | p95 | p99 |\n|---|---:|---:|---:|---:|---:|\n", fam.Label)
		for _, lv := range slices.Sorted(maps.Keys(fam.Series)) {
			s := fam.Series[lv]
			mean := "—"
			if s.Count > 0 {
				mean = fmt.Sprintf("%.1f", float64(s.Sum)/float64(s.Count))
			}
			bw.printf("| %s | %d | %s | %d | %d | %d |\n", lv, s.Count, mean,
				HistogramQuantile(fam.Bounds, s, 0.50),
				HistogramQuantile(fam.Bounds, s, 0.95),
				HistogramQuantile(fam.Bounds, s, 0.99))
		}
	}
}

// renderLabeledCounters emits one table per labeled counter family, a row
// per label value plus a total — the per-tenant throughput/fairness view.
func renderLabeledCounters(bw *errWriter, lcs map[string]LabeledCounterSnapshot) {
	for _, name := range slices.Sorted(maps.Keys(lcs)) {
		fam := lcs[name]
		bw.printf("\n## Labeled counter: %s\n\n", name)
		if fam.Help != "" {
			bw.printf("%s\n\n", fam.Help)
		}
		var total int64
		for _, v := range fam.Values {
			total += v
		}
		bw.printf("| %s | value | share |\n|---|---:|---:|\n", fam.Label)
		for _, lv := range slices.Sorted(maps.Keys(fam.Values)) {
			bw.printf("| %s | %d | %s |\n", lv, fam.Values[lv], pct(fam.Values[lv], total))
		}
		bw.printf("| **total** | **%d** | 100.0%% |\n", total)
	}
}

// renderBreakdowns emits one attribution table per "<prefix>.breakdown.*"
// counter family — the per-bucket cycle shares that answer "where did the
// cycles go".
func renderBreakdowns(bw *errWriter, counters map[string]int64) {
	groups := map[string]map[string]int64{}
	for name, v := range counters {
		i := strings.Index(name, ".breakdown.")
		if i < 0 {
			continue
		}
		prefix, bucket := name[:i], name[i+len(".breakdown."):]
		if groups[prefix] == nil {
			groups[prefix] = map[string]int64{}
		}
		groups[prefix][bucket] = v
	}
	for _, prefix := range slices.Sorted(maps.Keys(groups)) {
		buckets := groups[prefix]
		var total int64
		for _, v := range buckets {
			total += v
		}
		bw.printf("\n## Cycle breakdown: %s\n\n| bucket | cycles | share |\n|---|---:|---:|\n", prefix)
		for _, b := range slices.Sorted(maps.Keys(buckets)) {
			bw.printf("| %s | %d | %s |\n", b, buckets[b], pct(buckets[b], total))
		}
		bw.printf("| **total** | **%d** | 100.0%% |\n", total)
	}
}

// renderCounterGroups emits the full counter inventory, one table per
// top-level prefix (the segment before the first dot), skipping the
// breakdown families already rendered as attribution tables.
func renderCounterGroups(bw *errWriter, counters map[string]int64) {
	groups := map[string][]string{}
	for name := range counters {
		if strings.Contains(name, ".breakdown.") {
			continue
		}
		g := name
		if i := strings.Index(name, "."); i >= 0 {
			g = name[:i]
		}
		groups[g] = append(groups[g], name)
	}
	for _, g := range slices.Sorted(maps.Keys(groups)) {
		names := groups[g]
		slices.Sort(names)
		bw.printf("\n## Counters: %s\n\n| counter | value |\n|---|---:|\n", g)
		for _, name := range names {
			bw.printf("| %s | %d |\n", name, counters[name])
		}
	}
}

// renderTimeseries summarizes the sampled series: for every sampled key, the
// final cumulative value and the per-window peak delta (the saturation
// signal — a resource whose peak window is far above its average is bursty).
func renderTimeseries(bw *errWriter, ts *Timeseries) {
	if ts == nil || len(ts.Samples) == 0 {
		return
	}
	last := ts.Samples[len(ts.Samples)-1]
	bw.printf("\n## Time series\n\n%d samples over %d cycles (window %d).\n\n| series | final | peak Δ/window |\n|---|---:|---:|\n",
		len(ts.Samples), last.T, ts.Window)
	for _, key := range slices.Sorted(maps.Keys(last.Values)) {
		var prev, peak int64
		for _, s := range ts.Samples {
			if d := s.Values[key] - prev; d > peak {
				peak = d
			}
			prev = s.Values[key]
		}
		bw.printf("| %s | %d | %d |\n", key, last.Values[key], peak)
	}
}

// pct formats part/total as a percentage, tolerating a zero total.
func pct(part, total int64) string {
	if total == 0 {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// errWriter latches the first write error so the renderers stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
