package main

import (
	"fmt"
	"io"
)

// runCompare implements `benchmark compare A.json B.json`: per workload and
// metric, the median and quartiles of each side and the ratio B/A with A as
// its base. It exits non-zero when a bounded timing got worse by more than
// its bound, or when anything that repeats exactly — a mined count, a
// simulated cycle total, an engine or simulator counter, the failure count —
// differs at all. Exact values are compared only between runs of the same
// seed and size.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 1
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 1
	}
	va, vb := pool(a), pool(b)
	sameInputs := len(a) > 0 && len(b) > 0 && a[0].Seed == b[0].Seed && a[0].Quick == b[0].Quick
	bad := 0
	flag := func(format string, args ...any) {
		bad++
		fmt.Fprintf(stdout, "  FAIL "+format+"\n", args...)
	}

	fmt.Fprintf(stdout, "%-12s %-28s %-6s %36s %36s %9s\n", "workload", "metric", "unit",
		"A q1 / median / q3", "B q1 / median / q3", "B/A")
	for _, wl := range workloads {
		for _, group := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range group {
				xa, xb := va[wl.name][d.Name], vb[wl.name][d.Name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				ma, mb := median(xa), median(xb)
				fmt.Fprintf(stdout, "%-12s %-28s %-6s %10.5g / %10.5g / %10.5g %10.5g / %10.5g / %10.5g %9.4f\n",
					wl.name, d.Name, d.Unit,
					quantile(xa, 0.25), ma, quantile(xa, 0.75),
					quantile(xb, 0.25), mb, quantile(xb, 0.75), ratio(mb, ma))
				switch {
				case d.Exact && sameInputs && ma != mb:
					flag("%s %s repeats exactly but differs: %v against %v", wl.name, d.Name, ma, mb)
				case d.Bound > 0 && d.Better == "lower" && mb > ma*(1+d.Bound),
					d.Bound > 0 && d.Better == "higher" && mb < ma*(1-d.Bound):
					flag("%s %s is worse by more than its bound of %.2f of %.5g", wl.name, d.Name, d.Bound, ma)
				}
			}
		}
	}

	// Counts and failures, record by record.
	counts := func(recs []*record) map[string]map[string]int64 {
		out := map[string]map[string]int64{}
		for _, r := range recs {
			out[r.Workload] = r.Counts
		}
		return out
	}
	ca, cb := counts(a), counts(b)
	for _, wl := range workloads {
		if sameInputs && ca[wl.name] != nil && cb[wl.name] != nil {
			if err := sameCounts(cb[wl.name], ca[wl.name]); err != nil {
				flag("%s counts differ: %v", wl.name, err)
			}
		}
	}
	for _, side := range [][]*record{a, b} {
		for _, r := range side {
			if f := r.Phases["measure"].Failed + r.Phases["verify"].Failed; f > 0 || !r.Correct {
				flag("%s (trace=%v) has %d failed operations", r.Workload, r.Trace, f)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d differences beyond the bounds\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "within bounds; exact metrics identical")
	return 0
}
