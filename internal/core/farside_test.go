package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// tripStore calls trip from inside its at-th adjacency read.
type tripStore struct {
	graph.Store
	reads atomic.Int64
	at    int64
	trip  func()
}

func (s *tripStore) Adj(v graph.VID) []graph.VID {
	if s.reads.Add(1) == s.at {
		s.trip()
	}
	return s.Store.Adj(v)
}

// TestFarSideScratch: the far-side counters are all-zero between tasks whatever
// ends a sweep. Worker level, on the hub of a complete graph as one task and as
// 32-element slices: a sweep cancelled a few rows in, and one whose store panics a
// few rows in (the shape jobs' TestPanickingJobFailsAlone wraps), each leave
// nothing behind, and the tasks the same worker runs next count what a fresh
// worker counts. Engine level, the same two faults through MineContext: the
// partial counts are no more than the full ones and the OnTaskDone deltas sum to
// them — a sweep that did not finish reports what it had, or nothing, never more.
func TestFarSideScratch(t *testing.T) {
	g := graph.Clique(80)
	pl := mustCompile(t, pattern.FourCycle(), plan.Options{})
	o := Options{Threads: 1}.withDefaults()
	for _, slice := range []int{0, 32} {
		tasks := sched.Expand(g, slice)
		sched.OrderByDegreeDesc(g, tasks)
		hub := slices.IndexFunc(tasks, func(t sched.Task) bool { return t.V0 == 79 && t.Lo <= 40 && (t.Hi < 0 || t.Hi > 40) })
		for _, fault := range []string{"cancel", "panic"} {
			name := fmt.Sprintf("slice=%d %s", slice, fault)
			done := make(chan struct{})
			store := &tripStore{Store: g, at: 45} // the hub task's reads: its own row, then the sweep's
			w := newWorker(store, lower(g, pl, o, false), o)
			w.ctxDone = done
			if w.cm != nil {
				t.Fatalf("%s: the 4-cycle marks a level; a panic would leave the c-map dirty", name)
			}
			switch fault {
			case "cancel":
				store.trip = func() { close(done); w.cancelPoll = cancelPollPeriod - 1 } // the next poll looks
			case "panic":
				store.trip = func() { panic("adjacency is corrupt") }
			}
			func() {
				defer func() {
					if v := recover(); (v != nil) != (fault == "panic") {
						t.Errorf("%s: recovered %v", name, v)
					}
				}()
				w.runTask(tasks[hub])
			}()
			if w.far == nil || w.stopped != (fault == "cancel") || store.reads.Load() < store.at {
				t.Fatalf("%s: far allocated=%v, stopped=%v after %d reads: the fault did not land in a sweep", name, w.far != nil, w.stopped, store.reads.Load())
			}
			if i := slices.IndexFunc(w.far, func(c uint32) bool { return c != 0 }); i >= 0 {
				t.Fatalf("%s: far[%d] = %d left behind", name, i, w.far[i])
			}
			full := newWorker(g, w.prog, o)
			full.runTask(tasks[hub])
			if w.counts[0] > full.counts[0] || full.counts[0] == 0 {
				t.Errorf("%s: the cut-short task counted %d of %d", name, w.counts[0], full.counts[0])
			}
			w.stopped, w.ctxDone, w.counts[0], full.counts[0] = false, nil, 0, 0
			for _, task := range tasks[:8] {
				w.runTask(task)
				full.runTask(task)
			}
			if w.counts[0] != full.counts[0] {
				t.Errorf("%s: the tasks after it counted %d, a fresh worker %d", name, w.counts[0], full.counts[0])
			}
		}
	}

	want, err := Mine(g, pl, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range []int{SliceOff, 32} {
		for _, fault := range []string{"cancel", "panic"} {
			name := fmt.Sprintf("slice=%d %s, engine", slice, fault)
			ctx, cancel := context.WithCancel(context.Background())
			store := &tripStore{Store: g, at: 2000, trip: cancel}
			if fault == "panic" {
				store.trip = func() { panic("adjacency is corrupt") }
			}
			var deltas atomic.Int64
			e, err := NewEngine(store, pl, Options{Threads: 4, SliceElems: slice, OnTaskDone: func(_ int, m int64) { deltas.Add(m) }})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.MineContext(ctx)
			cancel()
			if pe := (*sched.PanicError)(nil); errors.As(err, &pe) != (fault == "panic") || err == nil {
				t.Fatalf("%s: err = %v", name, err)
			}
			if c := res.Count(); c >= want.Count() || c*pl.CountDivisor[0] != deltas.Load() {
				t.Errorf("%s: partial count %d of %d, OnTaskDone deltas sum to %d", name, c, want.Count(), deltas.Load())
			}
		}
	}
}
