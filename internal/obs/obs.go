// Package obs is the observability spine of the system: a deterministic
// metrics registry, scoped phase timers, and a ring-buffered event trace with
// a Chrome trace_event exporter. Every execution layer — the CPU engine
// (internal/core), the task scheduler (internal/sched), the
// cycle-level accelerator model (internal/sim) and the evaluation harness
// (internal/bench) — reports through it, replacing ad-hoc printf-style stats
// plumbing with one exportable surface.
//
// Determinism is the design center (DESIGN.md decision 11): metrics and trace
// files are meant to be golden-tested and diffed across commits, so every
// artifact written through this package is reproducible byte-for-byte given a
// deterministic instrumentation sequence. Timestamps come from a Clock: the
// VirtualClock — a pure tick counter — is the default for file artifacts,
// and the job service reads wall-clock milliseconds (jobs.wallMillis).
// Counter values themselves are schedule-invariant by construction (they
// aggregate work totals, not timings), so a 20-thread run registers the same
// numbers as a 1-thread run.
//
// Everything is nil-tolerant: a nil *Tracer ignores Emit calls, so
// instrumentation points in hot paths cost a single pointer test when
// observation is off (the zero-overhead-when-disabled property proven by
// BenchmarkTraceOverhead and the sim cycle-invariance tests).
package obs

import (
	"io"
	"os"
	"sync"
)

// Clock supplies timestamps for phases and trace events. Implementations must
// be safe for concurrent use.
type Clock interface {
	// Now returns the current timestamp. Units are implementation-defined:
	// abstract ticks for VirtualClock, milliseconds for the job service's
	// wall clock.
	Now() int64
}

// VirtualClock is a deterministic clock: each Now call advances a tick
// counter by one. Durations measured against it count instrumentation events,
// not wall time, which makes every derived artifact reproducible — the
// virtual-clock mode required by the golden tests.
type VirtualClock struct {
	mu sync.Mutex
	t  int64
}

// NewVirtualClock returns a virtual clock starting at tick 0.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now advances the clock one tick and returns it.
func (c *VirtualClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t++
	return c.t
}

// WriteFile creates path, renders an artifact into it and closes it; every
// artifact file the commands write goes through it. It returns render's
// error, or else Close's, so a file that did not reach the disk is never
// reported as written.
func WriteFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close() // render's error is the one to report
		return err
	}
	return f.Close()
}
