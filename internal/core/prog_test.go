package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// splitOps undoes flatten: the intersect and difference levels of a chain,
// failing if an intersection follows a difference (the plan applies all
// intersections first).
func splitOps(t *testing.T, ops []chainOp) (intersect, difference []int) {
	t.Helper()
	for _, o := range ops {
		if o.diff {
			difference = append(difference, o.level)
			continue
		}
		if len(difference) > 0 {
			t.Fatalf("chain %v intersects after a difference", ops)
		}
		intersect = append(intersect, o.level)
	}
	return intersect, difference
}

// sameLevels compares level lists, nil and empty alike.
func sameLevels(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func checkChain(t *testing.T, where string, ops []chainOp, intersect, difference []int) {
	t.Helper()
	gotI, gotD := splitOps(t, ops)
	if !sameLevels(gotI, intersect) {
		t.Fatalf("%s: intersect levels %v, plan has %v", where, gotI, intersect)
	}
	if !sameLevels(gotD, difference) {
		t.Fatalf("%s: difference levels %v, plan has %v", where, gotD, difference)
	}
}

// checkLowered compares the lowered subtree at n with the plan subtree at pn
// and returns its node count.
func checkLowered(t *testing.T, p *program, pn *plan.Node, n *node, depth int, o Options, listing bool) int {
	t.Helper()
	op := &pn.Op
	where := fmt.Sprintf("%s level %d", p.pl.Patterns[0].Name(), depth)
	if n.op != op {
		t.Fatalf("%s: node does not point at its plan op", where)
	}
	if n.depth != depth || n.patternIdx != pn.PatternIdx {
		t.Fatalf("%s: depth/patternIdx %d/%d, want %d/%d", where, n.depth, n.patternIdx, depth, pn.PatternIdx)
	}
	checkChain(t, where+" adj", n.adj, op.Connected, op.Disconnected)
	switch {
	case op.FrontierBase != plan.NoLevel:
		if n.src != srcFrontier || n.srcIdx != op.FrontierBase {
			t.Fatalf("%s: source %d/%d, want frontier %d", where, n.src, n.srcIdx, op.FrontierBase)
		}
		checkChain(t, where+" frontier", n.res, op.IntersectWith, op.DifferenceWith)
	case p.aux != nil && op.AuxBase != plan.NoLevel:
		if n.src != srcAux || n.srcIdx != op.AuxBase {
			t.Fatalf("%s: source %d/%d, want aux %d", where, n.src, n.srcIdx, op.AuxBase)
		}
		checkChain(t, where+" aux", n.res, op.AuxIntersect, op.AuxDifference)
	default:
		if n.src != srcAdj || len(n.res) != 0 {
			t.Fatalf("%s: source %d with residual %v, want plain adjacency", where, n.src, n.res)
		}
	}
	if p.aux == nil && n.builds != nil || p.aux != nil && !sameLevels(n.builds, op.BuildAux) {
		t.Fatalf("%s: builds aux specs %v, the op has %v under %+v", where, n.builds, op.BuildAux, o)
	}
	wantMode := interior
	switch {
	case !pn.IsLeaf():
	case listing:
		wantMode = leafVisit
	case op.MemoizeFrontier:
		wantMode = leafMaterialize
	default:
		wantMode = leafCount
	}
	if n.mode != wantMode {
		t.Fatalf("%s: leaf mode %d, want %d", where, n.mode, wantMode)
	}
	if len(n.children) != len(pn.Children) {
		t.Fatalf("%s: %d children, plan has %d", where, len(n.children), len(pn.Children))
	}
	count := 1
	for i, c := range pn.Children {
		count += checkLowered(t, p, c, n.children[i], depth+1, o, listing)
	}
	return count
}

func countPlanNodes(n *plan.Node) int {
	c := 1
	for _, ch := range n.Children {
		c += countPlanNodes(ch)
	}
	return c
}

// TestLowerMirrorsPlan: the exec program is the plan tree, node for node —
// same shape, child order, leaf pattern indices and operand lists — with only
// derived state added, for every option that changes what is derived. These
// plans (vertex-induced, or cliques on a DAG) have no level to count instead of
// extending, and on this graph every aux spec pays: auto keeps them all, merge none.
func TestLowerMirrorsPlan(t *testing.T) {
	var plans []*plan.Plan
	motifs5 := pattern.Motifs(5)
	if len(motifs5) != 21 {
		t.Fatalf("want the 21 connected 5-vertex motifs, got %d", len(motifs5))
	}
	for _, p := range motifs5 {
		pl, err := plan.Compile(p, plan.Options{Induced: true})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	multi, err := plan.CompileMulti(pattern.Motifs(4), plan.Options{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	dag, err := plan.CompileCliqueDAG(5)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, multi, dag)

	g := graph.ErdosRenyi(40, 120, 1)
	for _, pl := range plans {
		for _, o := range []Options{{}, {Kernel: KernelMergeOnly}} {
			for _, listing := range []bool{false, true} {
				p := lower(g, pl, o.withDefaults(), listing)
				if (p.aux != nil) != (o.Kernel == KernelAuto && len(pl.AuxSpecs) > 0) || (p.aux != nil && len(p.aux) != len(pl.AuxSpecs)) {
					t.Fatalf("%s: %d lowered aux specs for %d plan specs under %v", pl.Patterns[0].Name(), len(p.aux), len(pl.AuxSpecs), o.Kernel)
				}
				for i := range p.aux {
					a := &p.aux[i]
					if a.spec != &pl.AuxSpecs[i] {
						t.Fatalf("aux node %d does not point at its spec", i)
					}
					gotI, gotD := splitOps(t, a.ops)
					if !sameLevels(gotI, a.spec.Intersect) || !sameLevels(gotD, a.spec.Difference) {
						t.Fatalf("aux node %d folds %v/%v, spec has %v/%v", i, gotI, gotD, a.spec.Intersect, a.spec.Difference)
					}
				}
				if got, want := checkLowered(t, p, pl.Root, p.root, 0, o, listing), countPlanNodes(pl.Root); got != want {
					t.Fatalf("%s: %d lowered nodes, plan has %d", pl.Patterns[0].Name(), got, want)
				}
			}
		}
	}
}

// TestEngineExpandsOnce: the ordered task list is built once per engine, so
// TaskCount is what a run dispatches and repeated runs share it unchanged.
func TestEngineExpandsOnce(t *testing.T) {
	g := graph.RMAT(9, 4000, 0.57, 0.19, 0.19, 11)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range []int{SliceOff, 0, 8} {
		for _, threads := range []int{1, 4} {
			e, err := NewEngine(g, pl, Options{Threads: threads, SliceElems: slice})
			if err != nil {
				t.Fatal(err)
			}
			n := e.TaskCount()
			order := append([]sched.Task(nil), e.taskList()...)
			first := e.Mine()
			if int64(n) != first.Stats.Tasks {
				t.Fatalf("slice %d threads %d: TaskCount %d, run dispatched %d", slice, threads, n, first.Stats.Tasks)
			}
			if second := e.Mine(); !reflect.DeepEqual(first, second) {
				t.Fatalf("slice %d threads %d: second Mine on one engine differs:\n%+v\n%+v", slice, threads, first, second)
			}
			if !reflect.DeepEqual(order, e.taskList()) {
				t.Fatalf("slice %d threads %d: a run reordered the engine's cached task list", slice, threads)
			}
			// Concurrent first runs contend on the lazy expansion itself.
			fresh, _ := NewEngine(g, pl, Options{Threads: threads, SliceElems: slice})
			var got [2]Result
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = fresh.Mine()
				}(i)
			}
			wg.Wait()
			if !reflect.DeepEqual(got[0], first) || !reflect.DeepEqual(got[1], first) {
				t.Fatalf("slice %d threads %d: concurrent Mine calls on one engine disagree with a lone run", slice, threads)
			}
		}
	}
}

// BenchmarkExtension is the per-extension constant of the DFS: the 4-star
// plan does no set-operation work at all and, its bounds being loop positions
// (decision 20), no search either — every level is an adjacency prefix — so ns
// per Stats.Extensions is what one push onto the ancestor stack costs beyond
// the kernels: the figure decision 18 removed the op copies from. Merge-only,
// because KernelAuto answers 4-star in ≈ |E| extensions (decision 22): the same
// walk and descend, the same positional bounds, every pair pushed.
func BenchmarkExtension(b *testing.B) {
	g := graph.RMAT(11, 16000, 0.57, 0.19, 0.19, 7)
	pl, err := plan.Compile(pattern.KStar(4), plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(g, pl, Options{Threads: 1, Kernel: KernelMergeOnly})
	if err != nil {
		b.Fatal(err)
	}
	warm := e.Mine()
	if w := warm.Stats.SetOpIterations + warm.Stats.GallopProbes + warm.Stats.BitmapProbes + warm.Stats.Searches; w != 0 {
		b.Fatalf("4-star must do no set-operation work and no search, did %d", w)
	}
	b.ResetTimer()
	var ext int64
	for i := 0; i < b.N; i++ {
		ext += e.Mine().Stats.Extensions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ext), "ns/extension")
}
