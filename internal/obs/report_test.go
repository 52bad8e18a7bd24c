package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadMetricsJSONRoundTrip(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("sim.cycles", 123)
	end := r.StartPhase("mine")
	end()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMetricsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != MetricsSchema || m.Counters["sim.cycles"] != 123 || len(m.Phases) != 1 {
		t.Errorf("round trip lost data: %+v", m)
	}
}

func TestReadMetricsJSONRejectsSchema(t *testing.T) {
	if _, err := ReadMetricsJSON(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	if _, err := ReadMetricsJSON(strings.NewReader(`{`)); err == nil {
		t.Error("malformed document accepted")
	}
}

func reportFixture() (*Metrics, *Timeseries) {
	m := &Metrics{
		Schema: MetricsSchema,
		Counters: map[string]int64{
			"sim.breakdown.compute":    30,
			"sim.breakdown.dram_stall": 60,
			"sim.breakdown.idle":       10,
			"sim.cycles":               100,
			"cpu.count.0":              7,
		},
		Phases: []Phase{
			{Name: "load", Start: 0, End: 2, Dur: 2},
			{Name: "mine", Start: 2, End: 10, Dur: 8},
			{Name: "open", Start: 10, End: -1},
		},
	}
	ts := &Timeseries{
		Schema: TimeseriesSchema,
		Window: 50,
		Samples: []Sample{
			{T: 50, Values: map[string]int64{"dram_accesses": 5}},
			{T: 100, Values: map[string]int64{"dram_accesses": 30}},
		},
	}
	return m, ts
}

func TestRenderReport(t *testing.T) {
	m, ts := reportFixture()
	var buf bytes.Buffer
	if err := RenderReport(&buf, m, ts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# FlexMiner run report",
		"| load | 2 | 20.0% |",
		"| mine | 8 | 80.0% |",
		"| open | (open) | |",
		"## Cycle breakdown: sim",
		"| compute | 30 | 30.0% |",
		"| dram_stall | 60 | 60.0% |",
		"| **total** | **100** | 100.0% |",
		"## Counters: cpu",
		"| cpu.count.0 | 7 |",
		"## Counters: sim",
		"| sim.cycles | 100 |",
		"## Time series",
		"2 samples over 100 cycles (window 50).",
		"| dram_accesses | 30 | 25 |", // final 30, peak window delta 30-5=25
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q in:\n%s", want, out)
		}
	}
	// Breakdown counters must not be duplicated in the plain counter tables.
	if strings.Contains(out, "| sim.breakdown.compute |") {
		t.Errorf("breakdown counter leaked into the counter inventory:\n%s", out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	bounds := HistogramBounds()
	r := NewRegistry(nil)
	h := r.LabeledHistogram("lat", "", "tenant", 0)
	// 99 observations at 1ms, one at 1000ms: p50 is the first bucket, p99
	// still the first bucket (cum 99 >= 99), and p100 lands at le=1024.
	for i := 0; i < 99; i++ {
		h.Observe("a", 1)
	}
	h.Observe("a", 1000)
	s := h.Snapshot().Series["a"]
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 1}, {0.95, 1}, {0.99, 1}, {1.0, 1024}} {
		if got := HistogramQuantile(bounds, s, tc.q); got != tc.want {
			t.Errorf("q=%v: got %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := HistogramQuantile(bounds, HistogramSeries{}, 0.5); got != 0 {
		t.Errorf("empty series quantile = %d, want 0", got)
	}
	// An observation past every finite bound reports the largest finite bound.
	var inf HistogramSeries
	inf.Buckets = make([]int64, len(bounds)+1)
	inf.Buckets[len(bounds)] = 1
	inf.Count = 1
	if got := HistogramQuantile(bounds, inf, 0.5); got != bounds[len(bounds)-1] {
		t.Errorf("+Inf quantile = %d, want %d", got, bounds[len(bounds)-1])
	}
}

func TestRenderReportHistogramsAndLabeledCounters(t *testing.T) {
	r := NewRegistry(nil)
	qw := r.LabeledHistogram("jobs.queue_wait_ms", "queue wait per tenant, ms", "tenant", 8)
	for i := 0; i < 10; i++ {
		qw.Observe("alpha", 3)
	}
	qw.Observe("alpha", 120)
	qw.Observe("beta", 7)
	lc := r.LabeledCounter("jobs.submitted", "jobs accepted", "tenant", 8)
	lc.Add("alpha", 11)
	lc.Add("beta", 1)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMetricsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RenderReport(&out, m, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"## Histogram: jobs.queue_wait_ms",
		"queue wait per tenant, ms",
		"| tenant | count | mean | p50 | p95 | p99 |",
		"| alpha | 11 | 13.6 | 4 | 128 | 128 |",
		"| beta | 1 | 7.0 | 8 | 8 | 8 |",
		"## Labeled counter: jobs.submitted",
		"| alpha | 11 | 91.7% |",
		"| **total** | **12** | 100.0% |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q in:\n%s", want, got)
		}
	}
}

func TestRenderReportWithoutTimeseries(t *testing.T) {
	m, _ := reportFixture()
	var buf bytes.Buffer
	if err := RenderReport(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "## Time series") {
		t.Error("time-series section rendered with no data")
	}
}

func TestRenderReportZeroTotals(t *testing.T) {
	m := &Metrics{
		Schema:   MetricsSchema,
		Counters: map[string]int64{"sim.breakdown.compute": 0},
		Phases:   []Phase{{Name: "p", Start: 0, End: 0, Dur: 0}},
	}
	var buf bytes.Buffer
	if err := RenderReport(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "—") {
		t.Errorf("zero totals should render the em-dash placeholder:\n%s", buf.String())
	}
}

func TestRenderReportPropagatesWriteErrors(t *testing.T) {
	m, ts := reportFixture()
	if err := RenderReport(&failWriter{n: 0}, m, ts); err == nil {
		t.Error("write error swallowed")
	}
}
