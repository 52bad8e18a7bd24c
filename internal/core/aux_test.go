//go:build unix

package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

func mustMine(t *testing.T, g graph.Store, pl *plan.Plan, o Options) Result {
	t.Helper()
	res, err := Mine(g, pl, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// inducedPath is the smallest plan whose aux spec lowering keeps: the far end of
// the vertex-induced 4-path reads v1's row less v0's, once per v2.
func inducedPath(t *testing.T) *plan.Plan {
	return mustCompile(t, pattern.KPath(4), plan.Options{Induced: true})
}

// mined is the store a counting auto run of pl on g mines: g, or its
// degree-ordered copy where degreeOrdered takes it.
func mined(t *testing.T, g graph.Store, pl *plan.Plan) graph.Store {
	e, err := NewEngine(g, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e.g
}

// TestAuxNeverBlocksCounting: a plan's aux directives may add rows, never take a
// count away. For every catalog plan of 4–6 vertices, under both semantics, that
// carries a spec, on a skewed and a power-law graph: the default engine mines the
// merge-only counts over the same tree (Stats.Candidates) of the graph it mines
// (mined), and extends no more
// vertices than it does on the same plan with its directives cleared — where
// closed forms and factors (decisions 22, 23) have nothing to give way to.
func TestAuxNeverBlocksCounting(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":     graph.RMAT(6, 260, 0.57, 0.19, 0.19, 3),
		"chung-lu": graph.ChungLu(60, 240, 2.1, 11),
	}
	var clearAux func(n *plan.Node)
	clearAux = func(n *plan.Node) {
		n.Op.BuildAux, n.Op.AuxBase, n.Op.AuxIntersect, n.Op.AuxDifference = nil, plan.NoLevel, nil, nil
		for _, c := range n.Children {
			clearAux(c)
		}
	}
	plans, counted := 0, 0
	for k := 4; k <= 6; k++ {
		for _, p := range pattern.Motifs(k) {
			for _, induced := range []bool{false, true} {
				pl, bare := mustCompile(t, p, plan.Options{Induced: induced}), mustCompile(t, p, plan.Options{Induced: induced})
				if len(pl.AuxSpecs) == 0 {
					continue
				}
				plans++
				bare.AuxSpecs = nil
				clearAux(bare.Root)
				for gname, g := range graphs {
					name := fmt.Sprintf("%s induced=%v on %s", p.Name(), induced, gname)
					merge := mustMine(t, mined(t, g, pl), pl, Options{Threads: 1, Kernel: KernelMergeOnly})
					got, cleared := mustMine(t, g, pl, Options{Threads: 1}), mustMine(t, g, bare, Options{Threads: 1})
					if !reflect.DeepEqual(got.Counts, merge.Counts) || got.Stats.Candidates != merge.Stats.Candidates {
						t.Errorf("%s: counts %v over %d candidates, merge-only %v over %d", name, got.Counts, got.Stats.Candidates, merge.Counts, merge.Stats.Candidates)
					}
					if got.Stats.Extensions > cleared.Stats.Extensions || got.Stats.ClosedForms != cleared.Stats.ClosedForms {
						t.Errorf("%s: %d extensions, %d closed forms; %d and %d with the aux directives cleared", name,
							got.Stats.Extensions, got.Stats.ClosedForms, cleared.Stats.Extensions, cleared.Stats.ClosedForms)
					}
					if got.Stats.ClosedForms > 0 {
						counted++
					}
				}
			}
		}
	}
	if plans != 102 || counted == 0 {
		t.Errorf("%d catalog plans carry an aux spec, %d runs counted a level; want 102 and some", plans, counted)
	}
}

// TestAuxReuseDominatesBuilds checks the layer actually does its job under the
// default: within an activation the same extender row is looked up once per
// intermediate embedding, so reuses must outnumber builds on a dense input.
func TestAuxReuseDominatesBuilds(t *testing.T) {
	g := graph.RMAT(10, 9000, 0.57, 0.19, 0.19, 5)
	for _, pl := range []*plan.Plan{inducedPath(t), mustCompile(t, pattern.Motifs(5)[10], plan.Options{Induced: true})} {
		res := mustMine(t, g, pl, Options{Threads: 4})
		if res.Stats.AuxBuilt == 0 || res.Stats.AuxReused <= res.Stats.AuxBuilt {
			t.Fatalf("%s, vertex-induced: aux stats built=%d reused=%d; want reuse > build",
				pl.Patterns[0].Name(), res.Stats.AuxBuilt, res.Stats.AuxReused)
		}
		if res.Stats.AuxBytesPeak <= 0 {
			t.Fatalf("AuxBytesPeak = %d after %d builds", res.Stats.AuxBytesPeak, res.Stats.AuxBuilt)
		}
	}
}

// TestAuxCancellationMidMaterialization cancels a run partway through on every
// backend, on a plan whose aux rows are live: the run must return the context
// error with sane partial counts, and — the leak check — every activation
// scope a worker opened must have been released on the unwind path, so the
// live-byte ledger reads zero.
func TestAuxCancellationMidMaterialization(t *testing.T) {
	g := graph.RMAT(11, 16000, 0.57, 0.19, 0.19, 23)
	pl := inducedPath(t)
	if full := cancelOnEveryBackend(t, g, pl); full.Stats.AuxBuilt == 0 {
		t.Fatal("the full run built no aux row")
	}
	// Single-worker variant with direct access to the unwound state: drive
	// runTask with a pre-fired cancellation channel so the DFS stops inside
	// the aux subtree, then verify the scope ledger returned to zero.
	done := make(chan struct{})
	close(done)
	o := Options{Threads: 1}.withDefaults()
	w := newWorker(g, lower(g, pl, o, false), o)
	w.ctxDone = done
	for _, task := range sched.Expand(g, 0)[:20] {
		w.runTask(task)
	}
	if w.auxLive != 0 {
		t.Fatalf("cancelled tasks leaked %d live aux bytes across task boundaries", w.auxLive)
	}
	for i := range w.aux {
		if w.aux[i].universe != nil || w.aux[i].liveBytes != 0 || len(w.aux[i].arena) != 0 {
			t.Fatalf("spec %d state not released after cancellation: %+v", i, w.aux[i])
		}
	}
}

// TestAuxScratchPooledAllocs holds the engine's zero-allocation invariant: a
// warmed worker runs whole tasks — kernel dispatch, c-map marks and scans, aux
// row builds, materializations and visitor calls included — without touching
// the heap, because every scratch buffer (levels, ping-pong, stamps, offsets,
// arena) is pooled in per-worker state and the map is allocated once in
// newWorker. It is the only check of that property
// (setops.TestKernelsZeroAlloc and cmap.TestMapZeroAlloc hold it below the
// engine), so it runs the configuration production uses — auto kernels,
// whole-vertex and hub-sliced tasks — next to the merge-only one,
// and fails if the default legs miss the kernels their plans should reach:
// c-map accesses everywhere, aux rows on the plan that keeps its spec (and on
// house when listing: no factor there), no merge iteration at all on the clique plans
// (every chain of theirs is scannable or local, and a declined scan gallops),
// galloping where the skew still calls for it, local rows — position map, rows
// and candidate sets grown by the first tasks, none after — on the 4-clique.
func TestAuxScratchPooledAllocs(t *testing.T) {
	g := graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 5)
	var sink graph.VID
	visit := func(emb []graph.VID, _ int) { sink += emb[len(emb)-1] }
	legs := []struct {
		name  string
		o     Options
		slice int
	}{
		{"merge", Options{Threads: 1, Kernel: KernelMergeOnly}, 0},
		{"default", Options{Threads: 1}, 0},
		{"default/sliced", Options{Threads: 1}, 32},
	}
	// Vertex-induced 4-path: aux rows, built and reused. House: NotEqual at an
	// interior level and at the leaf, aux rows when listing.
	// 4-path: NotEqual on plain adjacency at both (the in-place ancestor cut
	// of materialize and the membership adjustment of count) and no set
	// operation at all. Diamond: no NotEqual, so the last kernel writes the
	// level buffer directly. 4-clique: symmetry bounds on every level.
	// Triangle: one scannable chain, one marked level. Induced 4-cycle:
	// difference kernels and a two-operation chain (one masked scan under the
	// default legs). Each runs as Mine (count-only leaves) and as List
	// (leafVisit). Oriented TC and 4-CL, on the graph oriented. Every counting leg
	// under auto sweeps its last level (decision 25) — a c-map scan, a local-row AND,
	// bounded or not, house's fused two-mask scan, and the count loop: the closed
	// forms of 4-path and diamond, the bounded triangle, the vertex-induced 4-path's
	// aux consumer — and allocates no more for it.
	induced := mustCompile(t, pattern.KCycle(4), plan.Options{Induced: true})
	path := mustCompile(t, pattern.KPath(4), plan.Options{}) // the one plan with no set operation to dispatch
	rows := inducedPath(t)
	plans := []*plan.Plan{induced, rows, path}
	for _, p := range []*pattern.Pattern{pattern.House(), pattern.Diamond(), pattern.KClique(4), pattern.Triangle()} {
		plans = append(plans, mustCompile(t, p, plan.Options{}))
	}
	for _, k := range []int{3, 4} {
		pl, err := plan.CompileCliqueDAG(k)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	dag := g.Orient()
	for _, pl := range plans {
		p, g := pl.Patterns[0], g
		if pl.RequiresDAG {
			g = dag
		}
		// A store that is not a heap graph, as a mapped file, has no arc memo (decision
		// 29): the diamond's m, an arc read on the heap, is a scan there, and gallops.
		type store struct {
			name string
			g    graph.Store
		}
		stores := []store{{"heap", g}}
		if p.Name() == pattern.Diamond().Name() {
			stores = append(stores, store{"file", struct{ graph.Store }{g}})
		}
		for _, st := range stores {
			g := st.g
			for _, leg := range legs {
				// RMAT puts the hubs at the low IDs, so the first tasks are
				// the heavy ones.
				tasks := sched.Expand(g, leg.slice)[:64]
				for _, listing := range []bool{false, true} {
					o, lname := leg.o.withDefaults(), st.name+"/"+leg.name
					w := newWorker(g, lower(g, pl, o, listing), o)
					if listing {
						w.visit = visit
					}
					batch := func() {
						for _, task := range tasks {
							w.runTask(task)
						}
					}
					batch() // warm: grow arenas/levels to steady state
					if avg := testing.AllocsPerRun(3, batch); avg > 0 {
						t.Errorf("%s %s listing=%v: warmed worker allocates %.1f times per task batch; scratch must be pooled", p.Name(), lname, listing, avg)
					}
					swept := false
					w.prog.each(func(n *node, _ []*node) { swept = swept || n.sweep != noSweep })
					if swept != (o.Kernel == KernelAuto && !listing) {
						t.Errorf("%s %s listing=%v: a swept last level %v; want one on every counting leg under auto", p.Name(), lname, listing, swept)
					}
					if built := w.stats.AuxBuilt > 0; built != (o.Kernel == KernelAuto && (pl == rows || listing && p.Name() == pattern.House().Name())) {
						t.Errorf("%s %s listing=%v: %d aux rows built", p.Name(), lname, listing, w.stats.AuxBuilt)
					}
					if o.Kernel != KernelAuto || pl == path {
						continue
					}
					if w.cm == nil || w.stats.BitmapProbes == 0 {
						t.Errorf("%s %s listing=%v: c-map live = %v, %d dense accesses; the default leg never reached the map", p.Name(), lname, listing, w.cm != nil, w.stats.BitmapProbes)
					}
					if local := p.Name() == pattern.KClique(4).Name(); local != (w.stats.LocalRows > 0) {
						t.Errorf("%s %s listing=%v: %d local rows built; only the 4-clique has local nodes, and its warmed tasks must still build theirs", p.Name(), lname, listing, w.stats.LocalRows)
					}
					clique := p.Name() == pattern.KClique(4).Name() || p.Name() == pattern.Triangle().Name() || pl.RequiresDAG
					if clique && w.stats.SetOpIterations != 0 {
						t.Errorf("%s %s listing=%v: %d merge iterations on a plan whose every chain is scannable", p.Name(), lname, listing, w.stats.SetOpIterations)
					}
					// The diamond's one skewed operation, m, is an edge's common-neighbour count:
					// on a heap graph an arc read since decision 29, one dense access.
					_, heap := g.(*graph.Graph)
					diamond, house := p.Name() == pattern.Diamond().Name(), p.Name() == pattern.House().Name()
					if skewed := diamond && !heap || house; skewed && w.stats.GallopProbes == 0 {
						t.Errorf("%s %s listing=%v: no gallop probe; the skewed operations fell back to merge", p.Name(), lname, listing)
					}
					if arcs := !listing && heap && (diamond || house); arcs != (w.memo != nil) {
						t.Errorf("%s %s listing=%v: reads the arc memo %v; want the counting legs of the diamond and house on the heap only", p.Name(), lname, listing, w.memo != nil)
					}
				}
			}
		}
	}
}

// TestAuxMineConstantHeap extends the O(1)-heap mmap bound to the aux layer:
// mining a plan with live aux rows through a mapped store must allocate only
// per-worker scratch (O(maxDegree) arrays plus the row arenas), never
// anything proportional to the file.
func TestAuxMineConstantHeap(t *testing.T) {
	// Erdős–Rényi: a multi-megabyte file with a tiny max degree, so worker
	// scratch (O(maxDegree) per spec) stays far under the file-derived bound.
	res := mappedMineConstantHeap(t, graph.ErdosRenyi(30_000, 240_000, 23), inducedPath(t), Options{Threads: 2})
	if res.Stats.AuxBuilt == 0 {
		t.Fatal("the mapped run built no aux row")
	}
}
