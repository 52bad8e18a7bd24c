package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event categories emitted by the instrumented layers. The Chrome trace
// groups timelines by these, and the acceptance tests assert all three appear
// in a simulator trace.
const (
	// CatSched covers scheduling: one event per CPU task, and the
	// simulator's global task-dispatch decisions.
	CatSched = "sched"
	// CatKernel covers set-operation kernel work: per-task kernel-dispatch
	// summaries on the CPU, per-operation SIU/SDU spans in the simulator.
	CatKernel = "kernel"
	// CatSimPE covers simulated-PE state transitions: task-execution spans
	// and retirement.
	CatSimPE = "sim-pe"
	// CatPhase covers driver-level phase markers (plan/build/mine/simulate).
	CatPhase = "phase"
	// CatJobs covers job-service lifecycle spans: per-job queued/compiling/
	// running intervals and the flow events tying batched jobs to their
	// shared engine run.
	CatJobs = "jobs"
)

// DefaultTraceCap is the ring capacity used when NewTracer is given a
// non-positive one: large enough for the evaluation workloads' full traces,
// small enough (~64k events) to bound memory on unbounded runs.
const DefaultTraceCap = 1 << 16

// Arg is one key/value annotation on a trace event.
type Arg struct {
	Key string
	Val int64
}

// Event is one trace record. TS and Dur are in the tracer clock's units
// (virtual ticks, or simulated PE cycles for events emitted via EmitAt);
// Dur == 0 marks an instant event. TID identifies the worker or PE. Ph, when
// non-empty, forces the Chrome phase character instead of the X/i inference —
// the flow-event path ("s"/"f"), where BindID pairs the start with its
// finish across timelines.
type Event struct {
	TS     int64
	Dur    int64
	Cat    string
	Name   string
	TID    int
	Ph     string
	BindID int64
	Args   []Arg
}

// Tracer is a bounded ring buffer of events. Emissions past the capacity
// overwrite the oldest events (the drop count is reported by the summary), so
// tracing an unbounded run cannot exhaust memory. All methods are safe for
// concurrent use, and every method tolerates a nil receiver — a nil *Tracer
// is the disabled tracer, costing instrumentation sites one pointer test.
type Tracer struct {
	mu      sync.Mutex
	clock   Clock
	buf     []Event
	cap     int
	head    int   // index of the oldest event once the ring wrapped
	wrapped bool  // ring has overwritten at least once
	dropped int64 // events overwritten
}

// NewTracer builds a tracer with the given ring capacity (<= 0 selects
// DefaultTraceCap) reading timestamps from clock (nil selects a
// VirtualClock).
func NewTracer(clock Clock, capacity int) *Tracer {
	if clock == nil {
		clock = NewVirtualClock()
	}
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{clock: clock, cap: capacity}
}

// Enabled reports whether emissions are recorded; it is the nil test
// instrumentation sites use to skip argument construction.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records an event stamped with the tracer clock.
func (t *Tracer) Emit(cat, name string, tid int, dur int64, args ...Arg) {
	if t == nil {
		return
	}
	t.insert(Event{TS: t.clock.Now(), Dur: dur, Cat: cat, Name: name, TID: tid, Args: args})
}

// EmitAt records an event with an explicit timestamp — the simulator path,
// where timestamps are PE-clock cycles and must not consult the tracer clock.
func (t *Tracer) EmitAt(cat, name string, tid int, ts, dur int64, args ...Arg) {
	if t == nil {
		return
	}
	t.insert(Event{TS: ts, Dur: dur, Cat: cat, Name: name, TID: tid, Args: args})
}

// EmitFlowAt records one endpoint of a flow arrow at an explicit timestamp:
// start=true emits the Chrome "s" (flow begin) phase on the given timeline,
// start=false the matching "f" (flow end); id pairs the two endpoints. The
// job service uses one flow per batched job, drawn from the job's lane to
// the engine-run span of the batch that carried it.
func (t *Tracer) EmitFlowAt(cat, name string, tid int, ts, id int64, start bool, args ...Arg) {
	if t == nil {
		return
	}
	ph := "f"
	if start {
		ph = "s"
	}
	t.insert(Event{TS: ts, Cat: cat, Name: name, TID: tid, Ph: ph, BindID: id, Args: args})
}

func (t *Tracer) insert(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.head] = e
	t.head = (t.head + 1) % t.cap
	t.wrapped = true
	t.dropped++
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.wrapped {
		out = append(out, t.buf[t.head:]...)
		out = append(out, t.buf[:t.head]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Categories returns the sorted set of categories present in the retained
// events.
func (t *Tracer) Categories() []string {
	seen := map[string]bool{}
	for _, e := range t.Events() {
		seen[e.Cat] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// chromeEvent is one entry of the Chrome trace_event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" is a complete (duration) event, ph "i" an instant one. Args marshal
// as a map, which encoding/json emits with sorted keys — deterministic.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   int64            `json:"ts"`
	Dur  int64            `json:"dur,omitempty"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	S    string           `json:"s,omitempty"`
	ID   int64            `json:"id,omitempty"`
	BP   string           `json:"bp,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeJSON exports the retained events in Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto. Output is deterministic for a
// deterministic emission sequence.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	events := t.Events()
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, e := range events {
		ce := chromeEvent{Name: e.Name, Cat: e.Cat, TS: e.TS, Dur: e.Dur, TID: e.TID}
		switch {
		case e.Ph != "":
			ce.Ph = e.Ph
			ce.ID = e.BindID
			if e.Ph == "f" {
				ce.BP = "e" // bind the arrow to the enclosing slice's end
			}
		case e.Dur > 0:
			ce.Ph = "X"
		default:
			ce.Ph = "i"
			ce.S = "t" // thread-scoped instant
		}
		if len(e.Args) > 0 {
			ce.Args = make(map[string]int64, len(e.Args))
			for _, a := range e.Args {
				ce.Args[a.Key] = a.Val
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteSummary renders a human-readable digest: per (category, name) event
// counts and duration totals, sorted, plus the drop count — the quick-look
// companion to the Chrome export.
func (t *Tracer) WriteSummary(w io.Writer) error {
	events := t.Events()
	type key struct{ cat, name string }
	type agg struct {
		n   int64
		dur int64
	}
	byKey := map[key]*agg{}
	var keys []key
	for _, e := range events {
		k := key{e.Cat, e.Name}
		a, ok := byKey[k]
		if !ok {
			a = &agg{}
			byKey[k] = a
			keys = append(keys, k)
		}
		a.n++
		a.dur += e.Dur
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cat != keys[j].cat {
			return keys[i].cat < keys[j].cat
		}
		return keys[i].name < keys[j].name
	})
	if _, err := fmt.Fprintf(w, "trace summary: %d events retained, %d dropped, %d categories\n",
		len(events), t.Dropped(), len(t.Categories())); err != nil {
		return err
	}
	for _, k := range keys {
		a := byKey[k]
		if _, err := fmt.Fprintf(w, "  %-10s %-16s %8d events %12d total dur\n",
			k.cat, k.name, a.n, a.dur); err != nil {
			return err
		}
	}
	return nil
}
