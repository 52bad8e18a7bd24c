package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// EventLog is the structured log of the serving path: one record per job
// lifecycle transition, ring-buffered like the Tracer so an unbounded run
// cannot exhaust memory, nil-inert so instrumentation sites cost one pointer
// test when logging is off. The export (WriteNDJSON) is one compact JSON
// object per line — LogRecord's fields are a fixed struct plus one
// sorted-key map, so two runs fed the same record sequence flush
// byte-identical NDJSON (the golden-test contract the rest of the
// observability layer already honors).

// DefaultEventLogCap is the ring capacity used when NewEventLog is given a
// non-positive one: ~16k transitions, several thousand jobs of history.
const DefaultEventLogCap = 1 << 14

// LogRecord is one structured log line. TS is in the producer's clock units
// (virtual ticks in tests, wall milliseconds in serve mode). Event names the
// transition (submitted/compiling/running/done/failed/cancelled), State the
// job state after it. Fields carries the numeric payload (queue_wait_ms,
// run_ms, batch_width, matches, …) and marshals with sorted keys; Stack is set on
// the job service's "panic" records only.
type LogRecord struct {
	TS     int64            `json:"ts"`
	Event  string           `json:"event"`
	Job    string           `json:"job,omitempty"`
	Tenant string           `json:"tenant,omitempty"`
	Batch  string           `json:"batch,omitempty"`
	State  string           `json:"state,omitempty"`
	Error  string           `json:"error,omitempty"`
	Stack  string           `json:"stack,omitempty"`
	Fields map[string]int64 `json:"fields,omitempty"`
}

// EventLog is a bounded ring buffer of LogRecords. All methods are safe for
// concurrent use and tolerate a nil receiver (the disabled log).
type EventLog struct {
	mu      sync.Mutex
	buf     []LogRecord
	cap     int
	head    int   // index of the oldest record once the ring wrapped
	wrapped bool  // ring has overwritten at least once
	dropped int64 // records overwritten
}

// NewEventLog builds an event log with the given ring capacity (<= 0 selects
// DefaultEventLogCap).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogCap
	}
	return &EventLog{cap: capacity}
}

// Enabled reports whether appends are recorded — the nil test producers use
// to skip record construction.
func (l *EventLog) Enabled() bool { return l != nil }

// Append records one log line, overwriting the oldest when the ring is full.
func (l *EventLog) Append(rec LogRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, rec)
		return
	}
	l.buf[l.head] = rec
	l.head = (l.head + 1) % l.cap
	l.wrapped = true
	l.dropped++
}

// Records returns the retained records in append order.
func (l *EventLog) Records() []LogRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogRecord, 0, len(l.buf))
	if l.wrapped {
		out = append(out, l.buf[l.head:]...)
		out = append(out, l.buf[:l.head]...)
	} else {
		out = append(out, l.buf...)
	}
	return out
}

// Tail returns the newest n retained records in append order (all of them
// when fewer are retained) — the /debug/jobs live view.
func (l *EventLog) Tail(n int) []LogRecord {
	recs := l.Records()
	if n >= 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

// Len returns the number of retained records.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Dropped returns how many records the ring overwrote.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// WriteNDJSON flushes the retained records as newline-delimited JSON, one
// compact object per line. Deterministic for a deterministic append sequence.
func (l *EventLog) WriteNDJSON(w io.Writer) error {
	for _, rec := range l.Records() {
		buf, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
