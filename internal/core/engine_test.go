package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// testGraphs returns a diverse set of small graphs with known structure.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	gs := map[string]*graph.Graph{
		"k6":        graph.Clique(6),
		"ring12":    graph.Ring(12, 2),
		"grid4x5":   graph.Grid(4, 5),
		"er40":      graph.ErdosRenyi(40, 120, 1),
		"er30dense": graph.ErdosRenyi(30, 200, 2),
		"cl50":      graph.ChungLu(50, 180, 2.3, 3),
		"bip":       graph.Bipartite(12, 12, 60, 4),
		"petersen": graph.MustFromEdges(10, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
			{U: 5, V: 7}, {U: 7, V: 9}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5},
			{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}, {U: 4, V: 9},
		}),
	}
	for name, g := range gs {
		if err := g.Validate(); err != nil {
			tb.Fatalf("graph %s invalid: %v", name, err)
		}
	}
	return gs
}

// TestCliqueDAGPath cross-checks the orientation-based clique plan against
// the generic symmetric plan and closed forms on K_n.
func TestCliqueDAGPath(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for k := 3; k <= 5; k++ {
			res, _ := mineApp(t, g, fmt.Sprintf("%d-CL", k), Options{Threads: 3})
			dag := res.Count()
			gen := mustMine(t, g, mustCompile(t, pattern.KClique(k), plan.Options{}), Options{Threads: 3}).Count()
			if dag != gen {
				t.Errorf("%d-CL on %s: DAG=%d generic=%d", k, gname, dag, gen)
			}
		}
	}
	// K_6: C(6,k) cliques of size k.
	k6 := graph.Clique(6)
	for k, want := range map[int]int64{3: 20, 4: 15, 5: 6, 6: 1} {
		if got, _ := mineApp(t, k6, fmt.Sprintf("%d-CL", k), Options{}); got.Count() != want {
			t.Errorf("%d-CL on K6: got %d want %d", k, got.Count(), want)
		}
	}
}

// TestSweepStopsLikeTheWalk: a swept last level (decision 25) polls for
// cancellation once per candidate, as the loop it replaces did, so a worker whose
// run is already cancelled stops at the same candidate — the 1024th poll — and
// leaves the same partial counts and Stats with the sweep and without it: on the
// oriented cliques, on house (a weighed sweep, which polls only where weight is
// left and charges every candidate's after the stop), on the symmetric 4-clique
// (a bounded local sweep and, its local-row cap lowered to 4 as the differential
// suite's cap4 vector does, the local kind counted off the rows), and on the count
// loop: the diamond and the 4-path (closed forms, the 4-path's with an operand
// counted once per list), the 5-path (a suspect) and the vertex-induced 4-path (an
// aux consumer).
func TestSweepStopsLikeTheWalk(t *testing.T) {
	g := graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 5)
	dag := g.Orient()
	done := make(chan struct{})
	close(done)
	o := Options{Threads: 1}.withDefaults()
	type leg struct {
		pl     *plan.Plan
		capped bool // the local-row cap lowered to 4
	}
	var legs []leg
	for _, p := range []*pattern.Pattern{pattern.House(), pattern.KClique(4), pattern.Diamond(), pattern.KPath(4), pattern.KPath(5)} {
		legs = append(legs, leg{pl: mustCompile(t, p, plan.Options{})})
	}
	legs = append(legs, leg{pl: inducedPath(t)}, leg{pl: mustCompile(t, pattern.KClique(4), plan.Options{}), capped: true})
	for k := 3; k <= 4; k++ {
		pl, err := plan.CompileCliqueDAG(k)
		if err != nil {
			t.Fatal(err)
		}
		legs = append(legs, leg{pl: pl})
	}
	for _, l := range legs {
		pl, g := l.pl, g
		if pl.RequiresDAG {
			g = dag
		}
		var ws [2]*worker
		for i := range ws {
			p := lower(g, pl, o, false)
			if l.capped {
				p.lcap = min(p.lcap, 4)
			}
			if i == 1 {
				p.each(func(n *node, _ []*node) { n.sweep = noSweep })
			}
			ws[i] = newWorker(g, p, o)
			ws[i].ctxDone = done
			for _, task := range sched.Expand(g, 0) {
				if !ws[i].runTask(task) {
					break
				}
			}
		}
		swept, walked := ws[0], ws[1]
		if !swept.stopped || swept.stats != walked.stats || !slices.Equal(swept.counts, walked.counts) {
			t.Errorf("%s (cap4 %v): stopped %v with %v and %+v; without the sweep %v and %+v", pl.Patterns[0].Name(), l.capped, swept.stopped, swept.counts, swept.stats, walked.counts, walked.stats)
		}
	}
}

// TestNewEngineRejectsPairings: NewEngine refuses a plan that does not validate,
// a DAG plan on a symmetric store and a symmetric plan on a DAG, each with an
// error that names the fault, and pairs each plan with the store it wants.
func TestNewEngineRejectsPairings(t *testing.T) {
	sym := graph.ErdosRenyi(20, 40, 1)
	dagPlan, err := plan.CompileCliqueDAG(3)
	if err != nil {
		t.Fatal(err)
	}
	symPlan := mustCompile(t, pattern.Triangle(), plan.Options{})
	for _, c := range []struct {
		name string
		g    graph.Store
		pl   *plan.Plan
		want string
	}{
		{"no root", sym, &plan.Plan{Patterns: symPlan.Patterns}, "nil root"},
		{"DAG plan, symmetric store", sym, dagPlan, "requires an oriented DAG"},
		{"symmetric plan, DAG store", sym.Orient(), symPlan, "requires a symmetric graph"},
	} {
		if _, err := NewEngine(c.g, c.pl, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewEngine returned %v; want an error containing %q", c.name, err, c.want)
		}
	}
	if _, err := NewEngine(sym.Orient(), dagPlan, Options{}); err != nil {
		t.Errorf("DAG plan on a DAG: %v", err)
	}
	if _, err := NewEngine(sym, symPlan, Options{}); err != nil {
		t.Errorf("symmetric plan on a symmetric store: %v", err)
	}
}

// TestParseKernelPolicy: every spelling the CLI and the job service accept, and
// the error and String of the rest.
func TestParseKernelPolicy(t *testing.T) {
	for s, want := range map[string]KernelPolicy{"": KernelAuto, "auto": KernelAuto, "merge": KernelMergeOnly, "merge-only": KernelMergeOnly} {
		if got, err := ParseKernelPolicy(s); err != nil || got != want {
			t.Errorf("ParseKernelPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKernelPolicy("bitmap"); err == nil || !strings.Contains(err.Error(), `"bitmap"`) {
		t.Errorf("ParseKernelPolicy(\"bitmap\") error %v; want one naming the spelling", err)
	}
	if s := KernelPolicy(7).String(); s != "KernelPolicy(7)" {
		t.Errorf("KernelPolicy(7).String() = %q", s)
	}
}

// TestTraceNamesCallerVertices: a run that mines the degree-ordered copy names
// the caller's vertices in its task events — each once, and, one thread claiming
// the degree-descending task list in order, in descending order of their degree
// in the caller's graph. RMAT numbers its hubs first, so the copy's own IDs would
// read in ascending order.
func TestTraceNamesCallerVertices(t *testing.T) {
	g := graph.RMAT(8, 1500, 0.57, 0.19, 0.19, 3)
	pl := mustCompile(t, pattern.Diamond(), plan.Options{})
	tr := obs.NewTracer(obs.NewVirtualClock(), 1<<12)
	e, err := NewEngine(g, pl, Options{Threads: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if e.old == nil {
		t.Fatal("the diamond's engine mines the caller's IDs; want its degree-ordered copy")
	}
	e.Mine()
	var degs []int
	seen := map[int64]bool{}
	for _, ev := range tr.Events() {
		if ev.Name != "task" {
			continue
		}
		v0 := ev.Args[slices.IndexFunc(ev.Args, func(a obs.Arg) bool { return a.Key == "v0" })].Val
		if seen[v0] {
			t.Errorf("task events name vertex %d twice", v0)
		}
		seen[v0] = true
		degs = append(degs, g.Degree(graph.VID(v0)))
	}
	if len(seen) != g.NumVertices() || !slices.IsSortedFunc(degs, func(a, b int) int { return b - a }) {
		t.Errorf("task events name %d of %d vertices, of degrees %v; want each once, in descending order", len(seen), g.NumVertices(), degs)
	}
}

// TestSchedHooksNameCallerVertices: OnTask, like the trace, names a task by the
// caller's vertex where the engine mines the degree-ordered copy (decision 28):
// one thread, whole vertices, so the hook sees every vertex once, in descending
// order of its degree in the caller's graph.
func TestSchedHooksNameCallerVertices(t *testing.T) {
	g := graph.RMAT(8, 1500, 0.57, 0.19, 0.19, 3)
	var degs []int
	seen := map[graph.VID]bool{}
	hooks := sched.Hooks{OnTask: func(_ int, task sched.Task) {
		if seen[task.V0] {
			t.Errorf("OnTask names vertex %d twice", task.V0)
		}
		seen[task.V0] = true
		degs = append(degs, g.Degree(task.V0))
	}}
	e, err := NewEngine(g, mustCompile(t, pattern.Diamond(), plan.Options{}), Options{Threads: 1, SliceElems: SliceOff, SchedHooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if e.old == nil {
		t.Fatal("the diamond's engine mines the caller's IDs; want its degree-ordered copy")
	}
	e.Mine()
	if len(seen) != g.NumVertices() || !slices.IsSortedFunc(degs, func(a, b int) int { return b - a }) {
		t.Errorf("OnTask names %d of %d vertices, of degrees %v; want each once, in descending order", len(seen), g.NumVertices(), degs)
	}
}
