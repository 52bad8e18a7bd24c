package core

// The search-free inner loop (DESIGN.md decision 20): a count-only leaf now
// settles distinctness by proof, c-map probe or search, and a bound by loop
// position or search. What each plan gets is pinned below; that every choice
// counts the same is the differential test's job.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/setops"
)

// TestLeafEvaluationsAgree: Mine (count path: proofs, probes, positions) ==
// List (materialize path: dropAncestors still searches) == BruteCount, for
// every connected pattern of 3–6 vertices under both matching semantics (the
// vertex-induced plans carry the Disconnected half of the proof rule), with and
// without symmetry breaking (without it a level reuses a frontier that already
// dropped an ancestor the leaf excludes too; with it that takes six vertices —
// and List, which needs a symmetry-broken plan, sits out), whole vertices on one
// thread and 4-element hub slices on three (the sliceLo offset of a positional
// bound), with and without the c-map. The 6-vertex patterns run on one graph
// small enough for BruteCount.
func TestLeafEvaluationsAgree(t *testing.T) {
	graphs := []*graph.Graph{
		graph.RMAT(6, 170, 0.57, 0.19, 0.19, 3),
		graph.ErdosRenyi(40, 140, 9),
		graph.RMAT(5, 110, 0.45, 0.22, 0.22, 21),
	}
	runs := []Options{
		{Threads: 1, AuxGraph: AuxAuto},
		{Threads: 3, SliceElems: 4, AuxGraph: AuxOn},
		{Threads: 1, Kernel: KernelMergeOnly},
		{Threads: 3, SliceElems: 4, Kernel: KernelMergeOnly, AuxGraph: AuxOn},
	}
	for k := 3; k <= 6; k++ {
		if k == 6 {
			graphs = []*graph.Graph{graph.ErdosRenyi(14, 48, 5)}
		}
		for _, p := range pattern.Motifs(k) {
			for _, po := range []plan.Options{{}, {Induced: true}, {NoSymmetry: true}, {NoSymmetry: true, Induced: true}} {
				pl := mustCompile(t, p, po)
				for gi, g := range graphs {
					want := BruteCount(g, p, po.Induced)
					for _, o := range runs {
						name := fmt.Sprintf("%s %+v graph %d threads=%d slice=%d kernel=%v", p.Name(), po, gi, o.Threads, o.SliceElems, o.Kernel)
						mined, err := Mine(g, pl, o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						listed := mined
						if !po.NoSymmetry {
							if listed, err = List(g, pl, o, func([]graph.VID, int) {}); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
						}
						if mined.Count() != want || listed.Count() != want {
							t.Errorf("%s: Mine %d, List %d, BruteCount %d", name, mined.Count(), listed.Count(), want)
						}
					}
				}
			}
		}
	}
}

// lowering renders what decision 20 decided for every node of the program, one
// line per node in tree order: the positional bound, the levels whose values
// cut the row a marked level inserts, and at a count-only leaf the NotEqual
// split — "probe[j: a~b]" reads "emb[j] is a candidate iff emb[b] is marked
// adjacent to level a", "never" lists the ancestors proven not to be one.
func lowering(p *program) string {
	var sb strings.Builder
	var walk func(n *node)
	walk = func(n *node) {
		fmt.Fprintf(&sb, "%sv%d", strings.Repeat("  ", n.depth), n.depth)
		if n.boundAt != plan.NoLevel {
			fmt.Fprintf(&sb, " bound@pos[%d]", n.boundAt)
		}
		if n.marked {
			sb.WriteString(" marks[")
			for l := 0; l <= n.depth; l++ {
				if n.markBelow>>l&1 != 0 {
					fmt.Fprintf(&sb, "<v%d", l)
				}
			}
			sb.WriteString("]")
		}
		settled := map[int]bool{}
		if len(n.certain) > 0 {
			fmt.Fprintf(&sb, " certain%v", n.certain)
		}
		for _, j := range n.certain {
			settled[j] = true
		}
		for _, s := range n.suspects {
			settled[s.j] = true
			if !s.probe {
				fmt.Fprintf(&sb, " check[%d]", s.j)
				continue
			}
			fmt.Fprintf(&sb, " probe[%d:", s.j)
			for k, o := range s.ops {
				fmt.Fprintf(&sb, " %d~%d", o.level, s.at[k])
			}
			sb.WriteString("]")
		}
		if n.mode == leafCount {
			for _, j := range n.op.NotEqual {
				if !settled[j] {
					fmt.Fprintf(&sb, " never[%d]", j)
				}
			}
		}
		sb.WriteString("\n")
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.root)
	return sb.String()
}

// TestLoweringSplit pins the lowering-time half of decision 20 for the plans
// the benchmark runs. House's leaf: v0 is adjacent to both sources by
// construction, v2 ~ v3 is the one open adjacency — a probe that marks level 2
// whole, a search without a c-map. Tailed-triangle's leaf is deg − 2. 4-star's
// two deeper levels and the diamond/4-clique frontier consumers end their
// prefix at a loop index. 4-path's v1 < v0 bounds a vertex by its own extender,
// which no list position answers.
func TestLoweringSplit(t *testing.T) {
	g := graph.ErdosRenyi(40, 120, 1)
	merged, err := plan.CompileMulti(pattern.Motifs(4), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	motifs, err := plan.CompileMotifs(4, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pl   *plan.Plan
		o    Options
		want string
	}{
		{"house", mustCompile(t, pattern.House(), plan.Options{}), Options{AuxGraph: AuxAuto}, `
v0 marks[]
  v1 marks[]
    v2 marks[]
      v3
        v4 certain[0] probe[2: 2~3]
`},
		{"house, merge-only", mustCompile(t, pattern.House(), plan.Options{}), PaperBaseline(1), `
v0
  v1
    v2
      v3
        v4 certain[0] check[2]
`},
		{"tailed-triangle", mustCompile(t, pattern.TailedTriangle(), plan.Options{}), Options{}, `
v0 marks[]
  v1
    v2
      v3 certain[1 2]
`},
		{"4-path", mustCompile(t, pattern.KPath(4), plan.Options{}), Options{}, `
v0
  v1 marks[]
    v2
      v3 certain[0] probe[2: 1~2]
`},
		{"4-star", mustCompile(t, pattern.KStar(4), plan.Options{}), PaperBaseline(1), `
v0
  v1
    v2 bound@pos[1]
      v3 bound@pos[2]
`},
		{"diamond", mustCompile(t, pattern.Diamond(), plan.Options{}), PaperBaseline(1), `
v0
  v1
    v2
      v3 bound@pos[2]
`},
		// 4-star, 4-path, then tailed-triangle and diamond below one v2, then
		// 4-cycle and 4-clique below the second v1.
		{"six merged 4-vertex patterns", merged, Options{}, `
v0 marks[]
  v1 marks[]
    v2 bound@pos[1]
      v3 bound@pos[2]
    v2
      v3 certain[0] probe[1: 1~2]
    v2
      v3 certain[1 2]
      v3
  v1 marks[<v0]
    v2 bound@pos[1]
      v3
    v2
      v3 bound@pos[2]
`},
		// K4 plus two vertices on one of its edges: v5 reuses v4's frontier,
		// which materialize already cut v2 and v3 out of — present again only
		// when resolve scans v1's row instead, so a search decides, not a proof.
		{"frontier-dropped ancestors", mustCompile(t, pattern.FromEdges(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {4, 0}, {4, 1}, {5, 0}, {5, 1}}), plan.Options{}), Options{}, `
v0 marks[]
  v1 marks[]
    v2
      v3 bound@pos[2]
        v4
          v5 bound@pos[4] check[2] check[3]
`},
		// Vertex-induced, every pair of levels is connected or disconnected by
		// some op, so nothing is left to probe or search.
		{"4-motifs, vertex-induced", motifs, Options{}, `
v0 marks[]
  v1 marks[]
    v2 bound@pos[1]
      v3 bound@pos[2]
    v2
      v3 never[0] never[1]
    v2
      v3 never[1] never[2]
      v3
  v1 marks[<v0]
    v2 bound@pos[1]
      v3
    v2
      v3 bound@pos[2]
`},
	} {
		if got := "\n" + lowering(lower(g, c.pl, c.o.withDefaults(), false)); got != c.want {
			t.Errorf("%s lowers to%swant%s", c.name, got, c.want)
		}
	}
}

// TestAuxRowFinger drives auxRow's position finger the four ways keys can
// arrive — an ascending run with short and long gaps, a restart, a descending
// run, keys outside the universe — and holds every answer to setops.Index and
// to the row the directive defines.
func TestAuxRowFinger(t *testing.T) {
	g := graph.RMAT(8, 1500, 0.57, 0.19, 0.19, 5)
	o := Options{Threads: 1, AuxGraph: AuxOn}.withDefaults()
	prog := lower(g, mustCompile(t, pattern.House(), plan.Options{}), o, false)
	w := newWorker(g, prog, o)
	v1node := prog.root.children[0]
	leaf := v1node.children[0].children[0].children[0]
	if !v1node.hasAux || leaf.src != srcAux {
		t.Fatal("house must build its aux spec at v1 and consume it at v4")
	}
	var v0 graph.VID
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VID(v)) > g.Degree(v0) {
			v0 = graph.VID(v)
		}
	}
	universe := g.Adj(v0)
	if len(universe) < 4*fingerSteps {
		t.Fatalf("hub degree %d is too small to outrun the finger", len(universe))
	}
	w.emb[0], w.emb[1] = v0, universe[len(universe)/2]
	w.auxActivate(v1node)
	defer w.auxRelease(v1node)
	st := &w.aux[leaf.srcIdx]

	var keys []graph.VID
	keys = append(keys, universe...)                                       // ascending, one step apart
	keys = append(keys, universe[0], universe[2], universe[3*fingerSteps]) // restarted; short gap, long gap
	for i := len(universe) - 1; i >= 0; i -= 3 {                           // descending: every key restarts
		keys = append(keys, universe[i])
	}
	absent := 0
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ { // interleave keys outside the universe
		if setops.Index(universe, v) < 0 && v != v0 {
			keys = append(keys, v, universe[int(v)%len(universe)])
			absent++
		}
	}
	if absent == 0 {
		t.Fatal("no vertex outside the universe")
	}
	before := w.stats.Searches
	for i, x := range keys {
		w.emb[leaf.op.Extender] = x
		row, ok := w.auxRow(leaf)
		pos := setops.Index(universe, x)
		if ok != (pos >= 0) {
			t.Fatalf("key %d (%d): auxRow ok=%v, Index=%d", i, x, ok, pos)
		}
		if !ok {
			continue
		}
		if st.finger != pos {
			t.Fatalf("key %d (%d): finger at %d, Index=%d", i, x, st.finger, pos)
		}
		if want := setops.Intersect(nil, g.Adj(x), g.Adj(w.emb[1])); fmt.Sprint(row) != fmt.Sprint(want) {
			t.Fatalf("key %d (%d): row %v, want %v", i, x, row, want)
		}
	}
	if searched := w.stats.Searches - before; searched == 0 || searched >= int64(len(keys))-int64(len(universe)) {
		t.Fatalf("%d searches over %d keys: the ascending run of %d must step, the long gaps must search", searched, len(keys), len(universe))
	}
}
