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

// TestHoistScratch: the counters hoisted sweeps gather from (decision 27) are
// either whole for the row they name or zeroed by the next build, whatever cuts a
// task short — under both of farReset's modes: on K₁₂ every reset is one clear, on
// K₁₂ beside 4,096 isolated vertices every reset walks the rows. House, one task
// faulted at each of its adjacency reads in turn: after a cancellation, counters
// the worker still calls its owner's hold exactly that row's counts, and the tasks
// it runs next count what a fresh worker counts; after a store panic, the same
// holds before the flush, and the flush leaves every counter zero. Some fault must
// land inside a build. Last, a far-side sweep on a worker that holds such counters
// counts what a fresh worker does.
func TestHoistScratch(t *testing.T) {
	for _, mode := range resetModes() {
		g := mode.g
		o := Options{Threads: 1}.withDefaults()
		// Lowered as for the tripStores below, which are no heap graph: house's walk
		// of F scans its rows instead of reading an arc memo (decision 29).
		p := lower(struct{ graph.Store }{g}, mustCompile(t, pattern.House(), plan.Options{}), o, false)
		tasks := sched.Expand(g, 0)
		slices.Reverse(tasks) // the last vertex first: house's v1 is below v0
		probe := &tripStore{Store: g, at: -1}
		if w := newWorker(probe, p, o); !w.runTask(tasks[0]) || !w.hbuilt {
			t.Fatalf("%s: house's first task built no counters", mode.name)
		} else if clears, _ := w.farReset(w.hadds); clears != mode.clears {
			t.Fatalf("%s: the build's reset clears %v", mode.name, clears)
		}
		reads, cut := probe.reads.Load(), 0
		fresh := newWorker(g, p, o)
		for _, task := range tasks[1:9] {
			fresh.runTask(task)
		}
		for at := int64(1); at <= reads; at++ {
			for _, fault := range []string{"cancel", "panic"} {
				name := fmt.Sprintf("%s, %s at read %d", mode.name, fault, at)
				done := make(chan struct{})
				store := &tripStore{Store: g, at: at}
				w := newWorker(store, p, o)
				w.ctxDone = done
				switch fault {
				case "cancel":
					store.trip = func() { close(done); w.cancelPoll = cancelPollPeriod - 1 }
				case "panic":
					store.trip = func() { panic("adjacency is corrupt") }
				}
				func() {
					defer func() { recover() }()
					w.runTask(tasks[0])
				}()
				if w.hown != nil && w.hbuilt {
					if err := holdsRows(g, w); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if w.hrows != nil && w.hown == nil {
					cut++
				}
				if fault == "panic" { // the c-map may hold marks: only the counters are checked
					w.hoistFlush()
					if i := slices.IndexFunc(w.far, func(c uint32) bool { return c != 0 }); i >= 0 {
						t.Fatalf("%s: far[%d] = %d after the flush", name, i, w.far[i])
					}
					continue
				}
				w.stopped, w.ctxDone, w.counts[0] = false, nil, 0
				for _, task := range tasks[1:9] {
					w.runTask(task)
				}
				if w.counts[0] != fresh.counts[0] {
					t.Errorf("%s: the tasks after it counted %d, a fresh worker %d", name, w.counts[0], fresh.counts[0])
				}
			}
		}
		if cut == 0 {
			t.Errorf("%s: none of the task's %d reads cut a build short", mode.name, reads)
		}
		// Far corners share the array: a far-side sweep zeroes what a hoisted sweep
		// left there before it counts. No catalog program has both, so the counters are
		// planted here.
		cyc := lower(g, mustCompile(t, pattern.FourCycle(), plan.Options{}), o, false)
		w, clean := newWorker(g, cyc, o), newWorker(g, cyc, o)
		w.hoistBuild(cyc.root, g.Adj(tasks[3].V0))
		for _, task := range tasks[:4] {
			w.runTask(task)
			clean.runTask(task)
		}
		if w.counts[0] != clean.counts[0] || w.hrows != nil {
			t.Errorf("%s: 4-cycle tasks after a hoisted sweep's counters counted %d, a fresh worker %d", mode.name, w.counts[0], clean.counts[0])
		}
	}
}

// resetMode is a graph on which farReset takes one way throughout: K₁₂, where a
// reset clears the array, and K₁₂ beside 4,096 isolated vertices (numbered
// first), where no set of rows adds a sixteenth of |V| and a reset walks them.
type resetMode struct {
	name   string
	g      *graph.Graph
	clears bool
}

func resetModes() []resetMode {
	const pad, k = 4096, 12
	var edges []graph.Edge
	for u := range k {
		for v := u + 1; v < k; v++ {
			edges = append(edges, graph.Edge{U: graph.VID(pad + u), V: graph.VID(pad + v)})
		}
	}
	return []resetMode{{"clear", graph.Clique(k), true}, {"walk", graph.MustFromEdges(pad+k, edges), false}}
}

// holdsRows: the counters are the named rows' counts — zero where none is named,
// or not yet allocated.
func holdsRows(g graph.Store, w *worker) error {
	if w.far == nil && w.hrows == nil {
		return nil
	}
	want := make([]uint32, g.NumVertices())
	for _, v := range w.hrows {
		for _, x := range g.Adj(v) {
			want[x]++
		}
	}
	if !slices.Equal(w.far, want) {
		return fmt.Errorf("counters %v for rows %v, want %v", w.far, w.hrows, want)
	}
	return nil
}

// TestFarResetModes: farReset's two ways of zeroing the counters count alike. The
// far-side 4-cycle and the hoisted house, each with and without symmetry breaking,
// one worker through every task of both resetModes graphs: between tasks the array
// holds exactly the rows a hoist names (all-zero after every far-side sweep), and
// the counts and Candidates are the same on both graphs — the isolated vertices
// add tasks, nothing else.
func TestFarResetModes(t *testing.T) {
	o := Options{Threads: 1}.withDefaults()
	for _, p := range []*pattern.Pattern{pattern.FourCycle(), pattern.House()} {
		for _, noSym := range []bool{false, true} {
			pl := mustCompile(t, p, plan.Options{NoSymmetry: noSym})
			var got [2][2]int64
			for i, mode := range resetModes() {
				w := newWorker(mode.g, lower(mode.g, pl, o, false), o)
				for _, task := range sched.Expand(mode.g, 0) {
					w.runTask(task)
					if err := holdsRows(mode.g, w); err != nil {
						t.Fatalf("%s (no symmetry %v), %s, after task %d: %v", p.Name(), noSym, mode.name, task.V0, err)
					}
				}
				if w.far == nil || w.stats.ClosedForms == 0 {
					t.Fatalf("%s (no symmetry %v), %s: no far-side or hoisted sweep ran", p.Name(), noSym, mode.name)
				}
				adds := int64(1) // the fewest a reset follows; the most are every arc
				if !mode.clears {
					adds = mode.g.NumArcs()
				}
				if clears, _ := w.farReset(adds); clears != mode.clears {
					t.Fatalf("%s: a reset after %d increments clears %v", mode.name, adds, clears)
				}
				got[i] = [2]int64{w.counts[0], w.stats.Candidates}
			}
			if got[0] != got[1] || got[0][0] == 0 {
				t.Errorf("%s (no symmetry %v): count and candidates %v with one clear, %v with the walk", p.Name(), noSym, got[0], got[1])
			}
		}
	}
}
