package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// biclique is the complete bipartite K_{a,b}: the a vertices of one side are twins
// of each other in every list of the b others, and the other way round.
func biclique(a, b int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, graph.Edge{U: graph.VID(i), V: graph.VID(a + j)})
		}
	}
	return graph.MustFromEdges(a+b, edges)
}

// farSided reports whether the program has a far corner.
func farSided(p *program) bool { return strings.Contains(lowering(p), " twins[") }

// lowerOffRows is lower for counting under KernelAuto without localNodes: what a
// plan whose twins are adjacent to v0 lowers to where no level can be local — the
// only far corners of the 3–6-vertex catalog that carry a chain.
func lowerOffRows(g graph.Store, pl *plan.Plan) *program {
	p := &program{pl: pl, closed: true}
	p.root = p.build(pl.Root, nil, false)
	p.closedForms(p.root, nil)
	p.factorNodes(p.root, nil)
	p.farSides()
	p.auxNodes(max(g.AvgDegree(), 1))
	p.markLevels()
	return p
}

// TestFarSideDifferential holds the far-side sweep (DESIGN.md decision 24) to
// BruteCount and to the enumerating walk: every 4–6-vertex pattern that lowers to
// a far corner (the 4-cycle, 5-motif-16, 6-motif-74 with three twins, 6-motif-95
// below a local v3), the three whose twins are local lowered off the rows, where
// the corner reads a chain through the c-map (5-motif-18, 6-motif-106, -109),
// K₂,₃, which has twins and no corner in the compiler's order, and the two merged
// 4-vertex trees, where the cycle is one child of a v1 with others and the stars
// are closed forms of depth 1; on a skewed, a power-law, a complete, a star, a
// windmill and a complete bipartite graph (every vertex of a side a twin of every
// other), one and four threads, hub slices off, 32 wide and one element wide — the
// last makes every level-1 list a slice with a head. Per run: counts == BruteCount;
// Stats.Candidates equals the merge-only run's, which sweeps nothing — the subsets
// and the matches sum to what walking the twins would have emitted;
// Stats.Extensions is no more than merge-only's.
//
// Mutants this must kill, each run against it by hand when the rule went in: the
// head of a hub slice not swept, and not subtracted from a depth-1 closed form
// (counts fall at slice 32 and 1); the sum grown by C(k+1, t−1), after the
// increment; the reset skipped (the second list swept counts the first one's);
// the corner's bound left out of the sweep; the NotEqual ancestors left in
// (5-motif-16, 6-motif-74, -95: v0 and v1 are adjacent to every twin); three twins
// counted as C(k, 1) per increment (6-motif-74); the chain not probed (the three
// lowered off the rows); Stats.Candidates without the subsets. Not killed, because
// no plan of the catalog gets there: a corner whose leaf is adjacent to only some of
// the twins — the compiler orders twins only where the rest of the pattern cannot
// tell them apart, and a product or an interior node ends every other chain first.
func TestFarSideDifferential(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	upto5 := []input{
		{"rmat", graph.RMAT(6, 220, 0.57, 0.19, 0.19, 3)},
		{"chung-lu", graph.ChungLu(48, 160, 2.0, 5)},
		{"complete", graph.Clique(9)},
		{"star", star(40)},
		{"windmill", windmill(20)},
		{"biclique", biclique(5, 6)},
	}
	six := []input{
		{"rmat", graph.RMAT(4, 40, 0.57, 0.19, 0.19, 3)},
		{"chung-lu", graph.ChungLu(16, 44, 2.0, 5)},
		{"complete", graph.Clique(8)},
		{"star", star(40)},
		{"windmill", windmill(20)},
		{"biclique", biclique(4, 5)},
	}
	check := func(in input, pl *plan.Plan, relower func(graph.Store, *plan.Plan) *program, wantFar bool) {
		t.Helper()
		want := make([]int64, len(pl.Patterns))
		for i, p := range pl.Patterns {
			want[i] = BruteCount(in.g, p, false)
		}
		for _, threads := range []int{1, 4} {
			for _, slice := range []int{SliceOff, 32, 1} {
				name := fmt.Sprintf("%s on %s threads=%d slice=%d", pl.Patterns[0].Name(), in.name, threads, slice)
				merge, err := Mine(in.g, pl, Options{Threads: threads, SliceElems: slice, Kernel: KernelMergeOnly})
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(in.g, pl, Options{Threads: threads, SliceElems: slice})
				if err != nil {
					t.Fatal(err)
				}
				if relower != nil {
					e.prog = relower(in.g, pl)
				}
				if got := farSided(e.prog); got != wantFar {
					t.Fatalf("%s: far corner: %v, want %v\n%s", name, got, wantFar, lowering(e.prog))
				}
				res := e.Mine()
				if !slices.Equal(res.Counts, want) || !slices.Equal(merge.Counts, want) {
					t.Errorf("%s: counts %v, merge-only %v, BruteCount %v", name, res.Counts, merge.Counts, want)
				}
				s := res.Stats
				if s.Candidates != merge.Stats.Candidates || s.Extensions > merge.Stats.Extensions {
					t.Errorf("%s: %d candidates, %d extensions; merge-only %d, %d: want equal, and no more", name,
						s.Candidates, s.Extensions, merge.Stats.Candidates, merge.Stats.Extensions)
				}
				if wantFar && slices.Max(want) > 0 && (in.name == "complete" || in.name == "biclique") && (s.ClosedForms == 0 || s.Extensions >= merge.Stats.Extensions) {
					t.Errorf("%s: %d closed forms, %d extensions of merge-only's %d: want a sweep, and fewer", name,
						s.ClosedForms, s.Extensions, merge.Stats.Extensions)
				}
			}
		}
	}
	o := Options{}.withDefaults()
	var bearing, chained [7]int // patterns with a far corner as lowered, and only off the rows, by size
	for k, inputs := range map[int][]input{4: upto5, 5: upto5, 6: six} {
		for _, p := range pattern.Motifs(k) {
			pl := mustCompile(t, p, plan.Options{})
			if farSided(lower(inputs[0].g, pl, o, false)) {
				bearing[k]++
				for _, in := range inputs {
					check(in, pl, nil, true)
				}
			} else if off := lowerOffRows(inputs[0].g, pl); farSided(off) {
				if !strings.Contains(lowering(off), " scan twins[") {
					t.Errorf("%s: off the rows its far corner reads no chain:\n%s", pl.Patterns[0].Name(), lowering(off))
				}
				chained[k]++
				for _, in := range inputs {
					check(in, pl, lowerOffRows, true)
				}
			}
		}
	}
	if bearing != [7]int{4: 1, 5: 1, 6: 2} || chained != [7]int{5: 1, 6: 2} {
		t.Errorf("far corners by pattern size: %v as lowered, %v more off the rows; want the 4-cycle, 5-motif-16, 6-motif-74 and -95, then 5-motif-18, 6-motif-106 and -109", bearing, chained)
	}
	k23 := mustCompile(t, pattern.FromEdges(5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}}), plan.Options{})
	burst, err := plan.CompileMulti(burstPatterns(t), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := plan.CompileMulti(pattern.Motifs(4), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range upto5 {
		check(in, k23, nil, false)
		check(in, burst, nil, true)
		check(in, merged, nil, true)
	}
}

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
