package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TimeseriesSchema names the exported time-series JSON layout; bump it when
// the document shape changes so downstream diff tooling can detect drift.
const TimeseriesSchema = "flexminer-timeseries/v1"

// Sample is one snapshot of named cumulative values at timestamp T (virtual
// ticks, or simulated cycles when the simulator drives the sampler).
type Sample struct {
	T      int64            `json:"t"`
	Values map[string]int64 `json:"values"`
}

// Sampler accumulates fixed-window snapshots of named int64 values — the
// time-series companion to the Registry's end-of-run totals. The driver
// (the simulator coordinator, or a serving loop snapshotting a Registry)
// owns the clock: it asks Due(t) whether the next window boundary has been
// reached and calls Record with a value snapshot for each boundary crossed.
// Like the Tracer, a nil *Sampler is inert, and recording never feeds back
// into the driver — the cycle model is provably invariant under sampling.
type Sampler struct {
	mu      sync.Mutex
	window  int64
	next    int64
	samples []Sample
}

// NewSampler builds a sampler with the given window width (in the driver's
// time unit); widths below 1 are clamped to 1. The first boundary is at one
// window, so a sample at time 0 is never emitted.
func NewSampler(window int64) *Sampler {
	if window < 1 {
		window = 1
	}
	return &Sampler{window: window, next: window}
}

// Enabled reports whether the sampler records; it is the nil test drivers
// use to skip snapshot construction.
func (s *Sampler) Enabled() bool { return s != nil }

// Window returns the configured window width.
func (s *Sampler) Window() int64 {
	if s == nil {
		return 0
	}
	return s.window
}

// Due reports whether time t has reached the next window boundary — the
// driver should Record a snapshot (possibly several, one per boundary
// crossed) before advancing past t.
func (s *Sampler) Due(t int64) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return t >= s.next
}

// Record appends a snapshot at the next window boundary and advances it one
// window. The sampler owns values from this point; callers must pass a
// fresh map per call.
func (s *Sampler) Record(values map[string]int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, Sample{T: s.next, Values: values})
	s.next += s.window
}

// RecordFinal appends a terminal snapshot at time t regardless of window
// alignment — the end-of-run flush that captures the final totals — unless
// the last recorded sample already sits at or past t.
func (s *Sampler) RecordFinal(t int64, values map[string]int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.samples); n > 0 && s.samples[n-1].T >= t {
		return
	}
	s.samples = append(s.samples, Sample{T: t, Values: values})
	s.next = t + s.window
}

// Samples returns a copy of the recorded snapshots in time order.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Timeseries is the parsed form of a flexminer-timeseries/v1 document —
// what WriteJSON emits and ReadTimeseriesJSON loads back for reporting.
type Timeseries struct {
	Schema  string   `json:"schema"`
	Window  int64    `json:"window"`
	Samples []Sample `json:"samples"`
}

// WriteJSON exports the recorded series as an indented
// flexminer-timeseries/v1 document. Sample values marshal as maps, which
// encoding/json emits with sorted keys, so two samplers fed the same
// snapshot sequence export byte-identical files (the golden-test contract,
// mirroring Registry.WriteJSON).
func (s *Sampler) WriteJSON(w io.Writer) error {
	doc := Timeseries{Schema: TimeseriesSchema, Window: s.Window(), Samples: s.Samples()}
	if doc.Samples == nil {
		doc.Samples = []Sample{}
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadTimeseriesJSON parses a flexminer-timeseries/v1 document, rejecting
// other schemas.
func ReadTimeseriesJSON(r io.Reader) (*Timeseries, error) {
	var doc Timeseries
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: parse timeseries: %w", err)
	}
	if doc.Schema != TimeseriesSchema {
		return nil, fmt.Errorf("obs: timeseries schema %q, want %q", doc.Schema, TimeseriesSchema)
	}
	return &doc, nil
}
