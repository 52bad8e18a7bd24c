package core

// The connectivity map (DESIGN.md decision 19): its marks must balance on every
// path, its scans must never change a count, and the merge-only policy must
// never see it.

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

func mustCompile(t testing.TB, p *pattern.Pattern, o plan.Options) *plan.Plan {
	t.Helper()
	pl, err := plan.Compile(p, o)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return pl
}

// TestCMapBalanced: whatever a task does — count, list, run as hub slices, or
// get cancelled in the middle of a subtree — every bit a level marked is
// cleared on the way back, so the map is all-zero and no row is held between
// tasks. Four workers take the tasks round-robin, as four threads would.
func TestCMapBalanced(t *testing.T) {
	g := graph.RMAT(9, 4000, 0.57, 0.19, 0.19, 5)
	motifs, err := plan.CompileMotifs(4, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := plan.CompileMulti(burstPatterns(), plan.Options{}) // the 4-cycle alone marks nothing (decision 24)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*plan.Plan{motifs, burst}
	for _, p := range []*pattern.Pattern{pattern.KClique(4), pattern.House()} {
		plans = append(plans, mustCompile(t, p, plan.Options{}))
	}
	for _, pl := range plans {
		for _, mode := range []string{"mine", "list", "cancel"} {
			for _, slice := range []int{0, 16} {
				name := fmt.Sprintf("%s %s slice=%d", pl.Patterns[0].Name(), mode, slice)
				o := Options{Threads: 4, SliceElems: slice}.withDefaults()
				prog := lower(g, pl, o, mode != "mine")
				done := make(chan struct{})
				visits := 0
				workers := make([]*worker, 4)
				for i := range workers {
					w := newWorker(g, prog, o)
					w.ctxDone = done
					w.visit = func([]graph.VID, int) {
						if visits++; mode == "cancel" && visits == 500 {
							close(done)
						}
					}
					workers[i] = w
				}
				if workers[0].cm == nil {
					t.Fatalf("%s: the program marks no level", name)
				}
				for i, task := range sched.Expand(g, slice) {
					workers[i%4].runTask(task)
				}
				var probes int64
				stopped := false
				for i, w := range workers {
					probes += w.stats.BitmapProbes
					stopped = stopped || w.stopped
					for x, b := range w.cm {
						if b != 0 {
							t.Fatalf("%s: worker %d left cm[%d] = %#x behind", name, i, x, b)
						}
					}
					for l, row := range w.cmRows {
						if row != nil {
							t.Errorf("%s: worker %d still holds level %d's inserted row", name, i, l)
						}
					}
				}
				if probes == 0 {
					t.Errorf("%s: no c-map access at all", name)
				}
				if stopped != (mode == "cancel") {
					t.Errorf("%s: a worker stopped = %v", name, stopped)
				}
			}
		}
	}
}

// TestCMapNeverUnderMergeOnly: the paper baseline is the merge model — its
// programs mark nothing, its workers carry no map and its runs report no dense
// access, whatever the plan.
func TestCMapNeverUnderMergeOnly(t *testing.T) {
	g := graph.RMAT(9, 4000, 0.57, 0.19, 0.19, 5)
	motifs, err := plan.CompileMotifs(4, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*plan.Plan{motifs, mustCompile(t, pattern.KClique(4), plan.Options{}), mustCompile(t, pattern.House(), plan.Options{})} {
		o := PaperBaseline(2)
		if prog := lower(g, pl, o, false); prog.marks || newWorker(g, prog, o).cm != nil {
			t.Errorf("%s: the merge-only program carries a c-map", pl.Patterns[0].Name())
		}
		res, err := Mine(g, pl, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BitmapProbes != 0 || res.Stats.GallopProbes != 0 {
			t.Errorf("%s: PaperBaseline run reports %d dense accesses, %d gallop probes",
				pl.Patterns[0].Name(), res.Stats.BitmapProbes, res.Stats.GallopProbes)
		}
	}
}

// TestCMapEightLevels: the map's byte has eight bits, so a level past the
// eighth is never marked and a chain that reads one keeps to the merge path. A
// level is only wanted from two levels down, so it takes an eleven-vertex
// pattern for that to happen at all: the induced 11-cycle's leaf (depth 10)
// reads level 8, while the induced 9-path only ever fills bits 0 to 5. The
// graph is an 11-ring with two detours, one of which a chord spoils, so the
// leaf's level-8 check decides the count.
func TestCMapEightLevels(t *testing.T) {
	var edges []graph.Edge
	for v := 0; v < 11; v++ {
		edges = append(edges, graph.Edge{U: graph.VID(v), V: graph.VID((v + 1) % 11)})
	}
	edges = append(edges, graph.Edge{U: 11, V: 0}, graph.Edge{U: 11, V: 2},
		graph.Edge{U: 12, V: 4}, graph.Edge{U: 12, V: 6}, graph.Edge{U: 12, V: 9})
	g := graph.MustFromEdges(13, edges)
	for _, p := range []*pattern.Pattern{pattern.KPath(9), pattern.KCycle(11)} {
		for _, induced := range []bool{false, true} {
			pl := mustCompile(t, p, plan.Options{Induced: induced})
			want := BruteCount(g, p, induced)
			for _, kernel := range allKernels {
				res, err := Mine(g, pl, Options{Threads: 2, Kernel: kernel})
				if err != nil {
					t.Fatal(err)
				}
				if res.Count() != want {
					t.Errorf("%s induced=%v kernel=%v: %d, brute force %d", p.Name(), induced, kernel, res.Count(), want)
				}
			}
		}
	}
	pl := mustCompile(t, pattern.KCycle(11), plan.Options{Induced: true})
	var top uint8
	n := lower(g, pl, Options{Threads: 1}, false).root
	for ; len(n.children) > 0; n = n.children[0] {
		if n.cmap.marked && n.depth >= cmLevels {
			t.Errorf("level %d is marked", n.depth)
		}
		if n.cmap.scan != nil {
			top |= n.cmap.scan[0].need | n.cmap.scan[0].avoid
		}
	}
	if top>>(cmLevels-1) == 0 {
		t.Errorf("no chain uses the map's top bit (mask union %#x)", top)
	}
	reads8 := false
	for _, o := range n.adj {
		reads8 = reads8 || o.level == cmLevels
	}
	if !reads8 || n.cmap.scan != nil {
		t.Errorf("leaf chain %v: reads level 8 = %v, scannable = %v; want a level-8 read kept off the map", n.adj, reads8, n.cmap.scan != nil)
	}
}
