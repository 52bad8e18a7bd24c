package main

// The benchmark's own span recorder. Spans are recorded from this package
// only, around each call into a layer; nothing inside the program under test
// is instrumented. They stay in memory until the run ends and are then
// written as Chrome trace_event JSON.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval: an operation (a mining pass, a sim pass or a job;
// parent == -1) or one call into a layer made on that operation's behalf.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index of the operation's span, -1 for the operation itself
	op         int           // operation id (its span's index) shared by every span of one operation
}

// recorder collects spans. A nil recorder (tracing off) records nothing, and
// a traced run switches a live one off for every other operation, so the same
// run yields the cost of recording (obs.trace_overhead_frac).
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// alternate switches the recorder on for even n and off for odd n.
func (r *recorder) alternate(n int) {
	if r != nil {
		r.on.Store(n%2 == 0)
	}
}

// begin opens an operation and returns its id (the index of its span), or -1
// when the recorder is off; everything recorded under -1 is dropped, so an
// operation is either recorded whole or not at all.
func (r *recorder) begin(name string) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: now, parent: -1, op: len(r.spans)})
	return len(r.spans) - 1
}

// end closes operation op.
func (r *recorder) end(op int) {
	if op < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[op].end = now
	r.mu.Unlock()
}

// add records a finished child interval of operation op.
func (r *recorder) add(name string, start, end time.Time, op int) {
	if op < 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: start.Sub(r.t0), end: end.Sub(r.t0), parent: op, op: op})
	r.mu.Unlock()
}

// call runs fn as a child span of operation op.
func (r *recorder) call(name string, op int, fn func()) {
	if op < 0 {
		fn()
		return
	}
	start := time.Now()
	fn()
	r.add(name, start, time.Now(), op)
}

// secondsPerOp returns, for every recorded operation, the total time of its
// child spans called name — the layer's busy time on behalf of one operation.
func (r *recorder) secondsPerOp(name string) []float64 {
	if r == nil {
		return nil
	}
	byOp := map[int]float64{}
	for _, s := range r.spans {
		if s.parent < 0 {
			byOp[s.op] += 0 // an operation with no such child still counts
		} else if s.name == name {
			byOp[s.op] += (s.end - s.start).Seconds()
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	return out
}

// explainedFrac is the share of operation time covered by child spans: for
// each operation the union of its children, clipped to the operation, over the
// operation's duration; operations are pooled by time. One minus this is the
// operations' self time — time the layer rows do not account for.
func (r *recorder) explainedFrac() float64 {
	if r == nil {
		return 0
	}
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.op] = append(children[s.op], s)
		}
	}
	var covered, total time.Duration
	for _, root := range r.spans {
		if root.parent >= 0 {
			continue
		}
		total += root.end - root.start
		kids := children[root.op]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		cursor := root.start
		for _, k := range kids {
			lo, hi := k.start, k.end
			if lo < cursor {
				lo = cursor
			}
			if hi > root.end {
				hi = root.end
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
	}
	return ratio(float64(covered), float64(total))
}

// writeChrome writes the spans as Chrome trace_event JSON (complete events,
// microseconds), one lane per operation.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.op,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"op": s.op, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
