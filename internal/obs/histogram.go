package obs

// Latency-distribution primitives for the serving path: label-keyed counter
// and deterministic log2-bucketed histogram families with bounded
// cardinality (per-tenant metrics, DESIGN.md decision 17). Like
// everything else in the registry, they are designed to be golden-tested:
// bucket layout is fixed at compile time, all state is int64, and exports
// emit series and labels in sorted order, so two runs fed the same
// observation sequence produce byte-identical artifacts.
//
// Cardinality is bounded by construction: a labeled family accepts at most
// its configured number of distinct label values; observations for any label
// beyond that are folded into the OverflowLabel series. A tenant name is
// client-controlled input, so without the bound a hostile client could mint
// one Prometheus series per request and run the exposition (and the
// registry) out of memory.

import (
	"fmt"
	"sort"
	"sync"
)

// Histogram bucket layout: finite upper bounds 2^0 .. 2^histMaxLog2 in the
// observed unit (milliseconds on the serving path), plus an implicit +Inf
// bucket. 1 ms .. ~17 min of finite resolution covers every latency a job
// can plausibly have; anything slower lands in +Inf and still counts toward
// sum/count.
const (
	histMaxLog2    = 20
	histNumBounds  = histMaxLog2 + 1 // finite bounds: 1, 2, 4, …, 2^20
	histNumBuckets = histNumBounds + 1
)

// OverflowLabel is the series that absorbs observations for label values
// beyond a labeled family's cardinality bound.
const OverflowLabel = "other"

// DefaultLabelCap is the distinct-label bound applied when a labeled family
// is created with a non-positive cap.
const DefaultLabelCap = 32

// HistogramBounds returns the finite bucket upper bounds (ascending); the
// last bucket of every series is the implicit +Inf bucket.
func HistogramBounds() []int64 {
	out := make([]int64, histNumBounds)
	for i := range out {
		out[i] = int64(1) << i
	}
	return out
}

// histSeries is one (label value → distribution) cell. Buckets are
// NON-cumulative per-bucket counts; the Prometheus exposition accumulates
// them into the cumulative `le` form on render.
type histSeries struct {
	buckets [histNumBuckets]int64
	sum     int64
	count   int64
}

func (s *histSeries) observe(v int64) {
	s.buckets[bucketFor(v)]++
	s.sum += v
	s.count++
}

// bucketFor returns the index of the first bucket whose upper bound is >= v;
// values past the last finite bound land in the +Inf bucket.
func bucketFor(v int64) int {
	for i := 0; i < histNumBounds; i++ {
		if v <= int64(1)<<i {
			return i
		}
	}
	return histNumBounds // +Inf
}

// LabeledHistogram is a histogram family keyed by one label (tenant on the
// serving path), bounded to maxCard distinct label values with an
// OverflowLabel spill series. A nil *LabeledHistogram ignores Observe.
type LabeledHistogram struct {
	name    string
	help    string
	label   string
	maxCard int
	mu      sync.Mutex
	series  map[string]*histSeries
}

// Observe records one value for the given label value, folding values beyond
// the cardinality bound into OverflowLabel.
func (h *LabeledHistogram) Observe(labelValue string, v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.seriesFor(labelValue).observe(v)
	h.mu.Unlock()
}

func (h *LabeledHistogram) seriesFor(labelValue string) *histSeries {
	s := h.series[labelValue]
	if s == nil {
		if labelValue != OverflowLabel && len(h.series) >= h.maxCard {
			labelValue = OverflowLabel
			if s = h.series[labelValue]; s != nil {
				return s
			}
		}
		s = &histSeries{}
		h.series[labelValue] = s
	}
	return s
}

// Count returns the observation count for one label value (zero when the
// series does not exist).
func (h *LabeledHistogram) Count(labelValue string) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.series[labelValue]; s != nil {
		return s.count
	}
	return 0
}

// LabeledCounter is a counter family keyed by one label, with the same
// bounded-cardinality contract as LabeledHistogram. A nil *LabeledCounter
// ignores Add.
type LabeledCounter struct {
	name    string
	help    string
	label   string
	maxCard int
	mu      sync.Mutex
	vals    map[string]int64
}

// Add accumulates delta for the given label value, folding values beyond the
// cardinality bound into OverflowLabel.
func (c *LabeledCounter) Add(labelValue string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.vals[labelValue]; !ok && labelValue != OverflowLabel && len(c.vals) >= c.maxCard {
		labelValue = OverflowLabel
	}
	c.vals[labelValue] += delta
	c.mu.Unlock()
}

// Get returns the value for one label (zero when absent).
func (c *LabeledCounter) Get(labelValue string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[labelValue]
}

// Values returns a copy of every (label value → count) pair.
func (c *LabeledCounter) Values() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.vals))
	for k, v := range c.vals {
		out[k] = v
	}
	return out
}

// HistogramSeries is the exported form of one series: non-cumulative
// per-bucket counts (len(Bounds)+1, the last being +Inf), total sum and
// observation count.
type HistogramSeries struct {
	Buckets []int64 `json:"buckets"`
	Sum     int64   `json:"sum"`
	Count   int64   `json:"count"`
}

// HistogramSnapshot is the exported form of a histogram family. Label is the
// label key; Series is keyed by label value.
type HistogramSnapshot struct {
	Help   string                     `json:"help,omitempty"`
	Label  string                     `json:"label,omitempty"`
	Bounds []int64                    `json:"bounds"`
	Series map[string]HistogramSeries `json:"series"`
}

// LabeledCounterSnapshot is the exported form of a labeled counter family.
type LabeledCounterSnapshot struct {
	Help   string           `json:"help,omitempty"`
	Label  string           `json:"label"`
	Values map[string]int64 `json:"values"`
}

func exportSeries(s *histSeries) HistogramSeries {
	return HistogramSeries{
		Buckets: append([]int64(nil), s.buckets[:]...),
		Sum:     s.sum,
		Count:   s.count,
	}
}

// Snapshot exports the family's current state; a nil receiver exports an
// empty family.
func (h *LabeledHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{Bounds: HistogramBounds(), Series: map[string]HistogramSeries{}}
	}
	return h.snapshot()
}

func (h *LabeledHistogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := HistogramSnapshot{
		Help:   h.help,
		Label:  h.label,
		Bounds: HistogramBounds(),
		Series: make(map[string]HistogramSeries, len(h.series)),
	}
	for label, s := range h.series {
		out.Series[label] = exportSeries(s)
	}
	return out
}

func (c *LabeledCounter) snapshot() LabeledCounterSnapshot {
	return LabeledCounterSnapshot{Help: c.help, Label: c.label, Values: c.Values()}
}

// Registry-side construction. Families are get-or-create by name so every
// layer observing the same metric shares one instance; a name may hold only
// one metric kind (the decision-12 one-registry rule applied to families).

// LabeledHistogram returns the histogram family registered under name, keyed
// by the given label, creating it on first use. maxCard bounds the distinct
// label values (<= 0 selects DefaultLabelCap); later observations for new
// labels fold into OverflowLabel.
func (r *Registry) LabeledHistogram(name, help, label string, maxCard int) *LabeledHistogram {
	if maxCard <= 0 {
		maxCard = DefaultLabelCap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKindLocked(name, kindLabeledHist)
	h := r.lhists[name]
	if h == nil {
		h = &LabeledHistogram{name: name, help: help, label: label, maxCard: maxCard, series: map[string]*histSeries{}}
		r.lhists[name] = h
	}
	return h
}

// LabeledCounter returns the counter family registered under name, keyed by
// the given label, creating it on first use with the same cardinality
// contract as LabeledHistogram.
func (r *Registry) LabeledCounter(name, help, label string, maxCard int) *LabeledCounter {
	if maxCard <= 0 {
		maxCard = DefaultLabelCap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKindLocked(name, kindLabeledCounter)
	c := r.lcounters[name]
	if c == nil {
		c = &LabeledCounter{name: name, help: help, label: label, maxCard: maxCard, vals: map[string]int64{}}
		r.lcounters[name] = c
	}
	return c
}

type metricKind int

const (
	kindLabeledHist metricKind = iota
	kindLabeledCounter
)

// checkKindLocked panics when name is already registered as a different
// metric kind — a programming error that would otherwise surface as two
// Prometheus families with one name.
func (r *Registry) checkKindLocked(name string, want metricKind) {
	if _, ok := r.lhists[name]; ok && want != kindLabeledHist {
		panic(fmt.Sprintf("obs: metric %q already registered as a labeled histogram", name))
	}
	if _, ok := r.lcounters[name]; ok && want != kindLabeledCounter {
		panic(fmt.Sprintf("obs: metric %q already registered as a labeled counter", name))
	}
}

// HistogramNames returns every registered histogram family name, sorted —
// the enumeration the drift tests pin.
func (r *Registry) HistogramNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.lhists))
	for name := range r.lhists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LabeledCounterNames returns every registered labeled-counter family name,
// sorted.
func (r *Registry) LabeledCounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.lcounters))
	for name := range r.lcounters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// histogramSnapshots collects every histogram family for export.
func (r *Registry) histogramSnapshots() map[string]HistogramSnapshot {
	r.mu.Lock()
	lhs := make([]*LabeledHistogram, 0, len(r.lhists))
	for _, h := range r.lhists {
		lhs = append(lhs, h)
	}
	r.mu.Unlock()
	if len(lhs) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(lhs))
	for _, h := range lhs {
		out[h.name] = h.snapshot()
	}
	return out
}

// labeledCounterSnapshots collects every labeled-counter family for export.
func (r *Registry) labeledCounterSnapshots() map[string]LabeledCounterSnapshot {
	r.mu.Lock()
	cs := make([]*LabeledCounter, 0, len(r.lcounters))
	for _, c := range r.lcounters {
		cs = append(cs, c)
	}
	r.mu.Unlock()
	if len(cs) == 0 {
		return nil
	}
	out := make(map[string]LabeledCounterSnapshot, len(cs))
	for _, c := range cs {
		out[c.name] = c.snapshot()
	}
	return out
}
