package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// MetricsSchema names the exported metrics JSON layout; bump it when the
// document shape changes so downstream diff tooling can detect drift.
const MetricsSchema = "flexminer-metrics/v1"

// Registry is a named-counter store plus a phase-timer log. Counters are
// int64 and accumulate via Add; the existing Stats structs of core, sim and
// cmap register their fields through AddStats. Export (WriteJSON) is
// deterministic: counters are emitted under sorted names and phases in begin
// order.
type Registry struct {
	mu       sync.Mutex
	clock    Clock
	counters map[string]int64
	help     map[string]string // optional per-counter HELP text (Prometheus)
	phases   []Phase

	// Distribution/labeled families (histogram.go). Kept in the same
	// registry so the decision-12 rule holds for them too: the Prometheus
	// exposition and the JSON artifact are two views of one store.
	lhists    map[string]*LabeledHistogram
	lcounters map[string]*LabeledCounter
}

// Phase is one closed phase-timer interval, in the registry clock's units.
type Phase struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Dur   int64  `json:"dur"`
}

// NewRegistry builds a registry reading timestamps from clock; a nil clock
// defaults to a VirtualClock, the deterministic choice.
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = NewVirtualClock()
	}
	return &Registry{
		clock:     clock,
		counters:  map[string]int64{},
		help:      map[string]string{},
		lhists:    map[string]*LabeledHistogram{},
		lcounters: map[string]*LabeledCounter{},
	}
}

// Clock returns the clock the registry stamps phases with, so subsystems
// that record their own timestamps (the job service's lifecycle clock) can
// share the registry's virtual/wall choice.
func (r *Registry) Clock() Clock { return r.clock }

// SetHelp attaches Prometheus HELP text to the named plain counter; the
// exposition falls back to a generic line when none is set.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// Add accumulates delta into the named counter, creating it at zero first.
func (r *Registry) Add(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] += delta
}

// Set replaces the named counter's value (gauge semantics).
func (r *Registry) Set(name string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = v
}

// Get returns the named counter's value (zero when absent).
func (r *Registry) Get(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Names returns every registered counter name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters))
	for name := range r.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StartPhase opens a scoped phase timer and returns its closer. Phases are
// recorded in begin order; nesting is allowed (the log is an interval list,
// not a stack). Under a VirtualClock the recorded interval counts clock reads
// between begin and end, which is deterministic for a deterministic
// instrumentation sequence.
func (r *Registry) StartPhase(name string) func() {
	start := r.clock.Now()
	r.mu.Lock()
	r.phases = append(r.phases, Phase{Name: name, Start: start, End: -1})
	idx := len(r.phases) - 1
	r.mu.Unlock()
	return func() {
		end := r.clock.Now()
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.phases[idx].End >= 0 {
			return // double close: keep the first interval
		}
		r.phases[idx].End = end
		r.phases[idx].Dur = end - start
	}
}

// Phases returns a copy of the phase log in begin order. Phases still open
// are reported with End == -1 and Dur == 0.
func (r *Registry) Phases() []Phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Phase(nil), r.phases...)
}

// Metrics is the flexminer-metrics/v1 JSON document: what WriteJSON emits and
// ReadMetricsJSON loads back for reporting. Counters, histogram series and
// labeled values marshal as maps — encoding/json sorts map keys, which keeps
// the bytes deterministic. The labeled/histogram sections are omitted when
// empty, so documents from registries without them (every artifact golden
// recorded before they existed) are byte-identical to the pre-histogram
// layout — the reason the schema stays flexminer-metrics/v1.
type Metrics struct {
	Schema          string                            `json:"schema"`
	Counters        map[string]int64                  `json:"counters"`
	LabeledCounters map[string]LabeledCounterSnapshot `json:"labeled_counters,omitempty"`
	Histograms      map[string]HistogramSnapshot      `json:"histograms,omitempty"`
	Phases          []Phase                           `json:"phases"`
}

// WriteJSON exports the registry as indented JSON. Two exports of registries
// fed the same instrumentation sequence are byte-identical (the golden-test
// contract).
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	doc := Metrics{
		Schema:   MetricsSchema,
		Counters: make(map[string]int64, len(r.counters)),
		Phases:   append([]Phase{}, r.phases...),
	}
	for k, v := range r.counters {
		doc.Counters[k] = v
	}
	r.mu.Unlock()
	doc.LabeledCounters = r.labeledCounterSnapshots()
	doc.Histograms = r.histogramSnapshots()
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// AddStats registers every aggregatable field of a Stats-like struct into r
// under prefix: exported integer fields become counters named
// prefix.snake_case_field, and nested struct fields recurse with the field
// name appended to the prefix. Float fields are skipped deliberately — they
// hold wall-clock-derived measurements (sim.Stats.Seconds, Utilization) that
// would break artifact determinism. TestRegisteredMetricEnumeration pins the
// resulting name sets so a new Stats field cannot land without a registration
// decision.
func AddStats(r *Registry, prefix string, stats any) {
	walkStats(prefix, stats, func(name string, v int64) { r.Add(name, v) })
}

// StatsMetricNames returns the counter names AddStats would register for the
// given struct, sorted — the registry-side field enumeration used by the
// drift tests.
func StatsMetricNames(prefix string, stats any) []string {
	var names []string
	walkStats(prefix, stats, func(name string, _ int64) { names = append(names, name) })
	sort.Strings(names)
	return names
}

// walkStats visits every registrable field of a struct (recursing into nested
// structs) in declaration order.
func walkStats(prefix string, stats any, visit func(name string, v int64)) {
	v := reflect.ValueOf(stats)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: AddStats wants a struct or *struct, got %T", stats))
	}
	walkStructFields(prefix, v, visit)
}

func walkStructFields(prefix string, v reflect.Value, visit func(string, int64)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + "." + SnakeCase(f.Name)
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			visit(name, fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			visit(name, int64(fv.Uint()))
		case reflect.Bool:
			var b int64
			if fv.Bool() {
				b = 1
			}
			visit(name, b)
		case reflect.Struct:
			walkStructFields(name, fv, visit)
		}
		// Floats, strings, slices, maps, pointers: not metrics — skipped.
	}
}

// SnakeCase converts a Go identifier to snake_case, keeping acronym runs
// together: SetOpIterations → set_op_iterations, SIUIters → siu_iters,
// DRAMAccesses → dram_accesses, L1Hits → l1_hits, CMap → c_map.
func SnakeCase(name string) string {
	runes := []rune(name)
	var sb strings.Builder
	for i, r := range runes {
		if unicode.IsUpper(r) && i > 0 {
			prev := runes[i-1]
			nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
			if !unicode.IsUpper(prev) || nextLower {
				sb.WriteByte('_')
			}
		}
		sb.WriteRune(unicode.ToLower(r))
	}
	return sb.String()
}
