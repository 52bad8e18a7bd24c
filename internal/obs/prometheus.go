package obs

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4) under the given namespace prefix: every plain
// counter as its own `counter` family with per-family HELP text, every
// labeled counter family as one `counter` family with a label pair per
// series, every histogram family as a proper `histogram` (cumulative
// `_bucket` series plus `_sum`/`_count`), and one duration sample per closed
// phase. This is the /metrics surface of serve mode: the exposition is a
// *view* of the one Registry every layer already reports into, never a
// second counter system (DESIGN.md decision 12), so a value visible on
// /metrics is by construction the value the JSON artifact would export.
//
// Counter names map to metric names by prefixing the namespace and
// sanitizing: dots (the registry's hierarchy separator) become underscores,
// as does any other character outside [a-zA-Z0-9_]. Families are emitted in
// sorted name order (plain counters, then labeled counters, then
// histograms, then phases), series within a family in sorted label order,
// so the page is deterministic for a deterministic instrumentation
// sequence.
func (r *Registry) WritePrometheus(w io.Writer, namespace string) error {
	if namespace == "" {
		namespace = "flexminer"
	}
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	phases := append([]Phase(nil), r.phases...)
	r.mu.Unlock()
	labeled := r.labeledCounterSnapshots()
	hists := r.histogramSnapshots()

	bw := &errWriter{w: w}
	for _, name := range slices.Sorted(maps.Keys(counters)) {
		metric := namespace + "_" + sanitizeMetricName(name)
		h := help[name]
		if h == "" {
			h = fmt.Sprintf("registry counter %s (flexminer-metrics/v1 counters[%q])", name, name)
		}
		bw.printf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", metric, h, metric, metric, counters[name])
	}
	for _, name := range slices.Sorted(maps.Keys(labeled)) {
		fam := labeled[name]
		metric := namespace + "_" + sanitizeMetricName(name)
		h := fam.Help
		if h == "" {
			h = fmt.Sprintf("labeled registry counter %s", name)
		}
		bw.printf("# HELP %s %s\n# TYPE %s counter\n", metric, h, metric)
		label := sanitizeMetricName(fam.Label)
		for _, lv := range slices.Sorted(maps.Keys(fam.Values)) {
			bw.printf("%s{%s=%q} %d\n", metric, label, lv, fam.Values[lv])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(hists)) {
		writeHistogramFamily(bw, namespace, name, hists[name])
	}
	if len(phases) > 0 {
		bw.printf("# HELP %s_phase_duration_ticks closed phase-timer spans, clock units\n# TYPE %s_phase_duration_ticks gauge\n",
			namespace, namespace)
		for _, p := range phases {
			if p.End < 0 {
				continue // still open; duration unknown
			}
			bw.printf("%s_phase_duration_ticks{phase=%q} %d\n", namespace, p.Name, p.Dur)
		}
	}
	return bw.err
}

// writeHistogramFamily renders one histogram family: cumulative `le` bucket
// series per label value, then `_sum` and `_count`, every sample carrying the
// family's label pair.
func writeHistogramFamily(bw *errWriter, namespace, name string, fam HistogramSnapshot) {
	metric := namespace + "_" + sanitizeMetricName(name)
	h := fam.Help
	if h == "" {
		h = fmt.Sprintf("registry histogram %s", name)
	}
	bw.printf("# HELP %s %s\n# TYPE %s histogram\n", metric, h, metric)
	label := sanitizeMetricName(fam.Label)
	for _, lv := range slices.Sorted(maps.Keys(fam.Series)) {
		s := fam.Series[lv]
		pair := fmt.Sprintf("%s=%q", label, lv)
		var cum int64
		for i, b := range s.Buckets {
			cum += b
			le := "+Inf"
			if i < len(fam.Bounds) {
				le = fmt.Sprintf("%d", fam.Bounds[i])
			}
			bw.printf("%s_bucket{%s,le=%q} %d\n", metric, pair, le, cum)
		}
		bw.printf("%s_sum{%s} %d\n", metric, pair, s.Sum)
		bw.printf("%s_count{%s} %d\n", metric, pair, s.Count)
	}
}

// sanitizeMetricName maps a registry counter name onto the Prometheus metric
// name charset: [a-zA-Z0-9_], everything else replaced by '_'.
func sanitizeMetricName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
