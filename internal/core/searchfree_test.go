package core

// The search-free inner loop (DESIGN.md decision 20): a count-only leaf now
// settles distinctness by proof, c-map probe or search, and a bound by loop
// position or search. What each plan gets is pinned below; that every choice
// counts the same is the differential test's job.

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/setops"
)

// burstPatterns are the six 4-vertex patterns of the benchmark's burst catalog
// (benchmark/servewl.go), in its order; CompileMulti merges them into one tree.
func burstPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{pattern.Diamond(), pattern.TailedTriangle(), pattern.FourCycle(), pattern.KClique(4), pattern.KStar(4), pattern.KPath(4)}
}

// TestLocalCap: a task whose universe is over the cap builds no row and leaves
// no position behind; one under it, on a plan with local nodes, is local.
func TestLocalCap(t *testing.T) {
	g := graph.RMAT(6, 170, 0.57, 0.19, 0.19, 3)
	o := Options{Threads: 1}.withDefaults()
	for _, pl := range []*plan.Plan{mustCompile(t, pattern.KClique(4), plan.Options{}), mustCompile(t, pattern.KClique(5), plan.Options{Induced: true})} {
		prog := lower(g, pl, o, false)
		if !prog.local || !prog.lbelow {
			t.Fatalf("%s: want local nodes over a universe below v0", pl.Patterns[0].Name())
		}
		prog.lcap = 4
		w := newWorker(g, prog, o)
		var under, over int
		for _, task := range sched.Expand(g, 0) {
			universe := len(setops.Bounded(g.Adj(task.V0), task.V0))
			before := w.stats.LocalRows
			w.runTask(task)
			switch built := w.stats.LocalRows - before; {
			case universe > 4 && built != 0:
				t.Errorf("v0=%d: universe of %d over the cap, %d rows built", task.V0, universe, built)
			case universe > 4:
				over++
			case built > 0:
				under++
			}
			for x, p := range w.loc.at {
				if p != 0 {
					t.Fatalf("v0=%d left at[%d] = %d behind", task.V0, x, p)
				}
			}
		}
		if under == 0 || over == 0 {
			t.Errorf("%s: %d tasks built rows, %d were over the cap: want both", pl.Patterns[0].Name(), under, over)
		}
	}
}

// TestMergedTreeWorkBound: the merged tree CompileMulti compiles for the burst
// catalog's six 4-vertex patterns is held here to the work it does on the
// benchmark's own graph: merge iterations + dense accesses + gallop probes + searches, and
// extensions. Decision 21 (only the 4-clique branch is local: rows must cost no
// more than the c-map walk, a lookup per level-1 extension or a search per task
// would show) stood at 6,772,841 + 73,888 + 143,668; decision 22 took the 4-star
// and 4-path branches, 907,066 of 1,093,224 extensions, to 186,158; decision 24
// the 4-cycle branch — 4.6 M of the dense accesses, one scan per pair of
// neighbours — and depth 1: 2,436,164 and 54,197 now, v1's mark read by the rows
// alone. Exactly the candidates throughout.
func TestMergedTreeWorkBound(t *testing.T) {
	g := graph.RMAT(11, 14000, 0.45, 0.22, 0.22, 7^0x31) // benchmark/workloads.go serveBurstShape, seed 7
	pl, err := plan.CompileMulti(burstPatterns(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(g, pl, PaperBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mine(g, pl, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Counts, want.Counts) {
		t.Fatalf("counts %v, merge-only baseline %v", got.Counts, want.Counts)
	}
	s := got.Stats
	if work := s.SetOpIterations + s.BitmapProbes + s.GallopProbes + s.Searches; work > 2_500_000 || s.LocalRows == 0 {
		t.Errorf("%d merge iterations + %d dense accesses + %d gallop probes + %d searches = %d with %d local rows; want rows, and no more than 2500000",
			s.SetOpIterations, s.BitmapProbes, s.GallopProbes, s.Searches, work, s.LocalRows)
	}
	if s.Extensions > 60_000 || s.ClosedForms == 0 || s.Candidates != want.Stats.Candidates {
		t.Errorf("%d extensions, %d closed forms, %d candidates; want at most 60000 (merge-only: %d), some, and merge-only's %d",
			s.Extensions, s.ClosedForms, s.Candidates, want.Stats.Extensions, want.Stats.Candidates)
	}
}

// lowering renders what decisions 20 and 21 decided for every node of the
// program, one line per node in tree order: the positional bound, the levels
// whose values cut the row a marked level inserts ("lonly": only local nodes read
// the mark, so a local task leaves it out), and at a count-only leaf the NotEqual
// split — "probe[j: a~b]" reads "emb[j] is a candidate iff emb[b] is marked
// adjacent to level a", "never" lists the ancestors proven not to be one. For
// local rows the root carries what the universe and the rows leave out
// ("universe[<v0 tri]": neighbours below v0, rows below their own vertex), a local
// node its operands ("local[@2 1 !3]": level 2's candidate set AND row of emb[1]
// AND-NOT row of emb[3]); "pos" marks a level off the rows whose position a local
// node needs, "list" a local one whose frontier a node off the rows reuses. A
// closed form (decision 22) reads "choose[t]" — C(m, t) over the node's m
// candidates — or "product[A B]", m·A − B ("m" for B where B is m and not
// evaluated), A and B following as count-only nodes of the same depth with the
// row and chain they start from ("scan": the chain is one masked c-map op). A
// "factor" node (decision 23) is descended from once, its level unbound; below it
// "weighed[d: probe]" takes one from the weight where a candidate is one of level
// d's, asking the c-map ("search": level d's list), and a leaf "weighed[d]"
// matches m·weight − B, B following like a product's. A far corner (decision 24)
// follows the node whose list it sweeps as "X=", "row[d]" the rows of level d's
// list, "twins[t]" the levels it stands for, "less[j]" the
// ancestors whose C(·, t) comes out of the sum again. Aux rows (decision 14):
// "builds[i]" at the level that activates spec i, "aux#i" at a consumer of its rows.
// A node whose only child walk counts over its list in one loop (decision 25) reads
// "sweep[scan]" — the child scans each candidate's row against the c-map —,
// "sweep[local]", the child ANDs the node's local set with each candidate's row, or
// "sweep[weighed]": below a factor, the child and its B scan each row in one pass,
// or "sweep[count]": the child is counted per candidate as the walk counts it, a
// closed form's operands that name the node's level nowhere "once", once per list.
// A swept node that counts from the counters of an ancestor's row (decision 27)
// adds "hoist[o]", o being that ancestor's level.
func lowering(p *program) string {
	var sb strings.Builder
	var walk func(n *node, term string)
	walk = func(n *node, term string) {
		fmt.Fprintf(&sb, "%s%sv%d", strings.Repeat("  ", n.depth)[len(term):], term, n.depth)
		if term != "" {
			fmt.Fprintf(&sb, " row[%d", n.op.Extender)
			for _, o := range n.adj {
				if o.diff {
					fmt.Fprintf(&sb, " !%d", o.level)
				} else {
					fmt.Fprintf(&sb, " %d", o.level)
				}
			}
			sb.WriteString("]")
			if n.cmap.scan != nil {
				sb.WriteString(" scan")
			}
		}
		if n.boundAt != plan.NoLevel {
			fmt.Fprintf(&sb, " bound@pos[%d]", n.boundAt)
		}
		if n.src == srcAux {
			fmt.Fprintf(&sb, " aux#%d", n.srcIdx)
		}
		if n.builds != nil {
			fmt.Fprintf(&sb, " builds%v", n.builds)
		}
		if n.cmap.marked {
			sb.WriteString(" marks[")
			for l := 0; l <= n.depth; l++ {
				if n.cmap.markBelow>>l&1 != 0 {
					fmt.Fprintf(&sb, "<v%d", l)
				}
			}
			sb.WriteString("]")
			if n.cmap.lonly {
				sb.WriteString(" lonly")
			}
		}
		if n.depth == 0 && p.local {
			var cuts []string
			if p.lbelow {
				cuts = append(cuts, "<v0")
			}
			if p.ltri {
				cuts = append(cuts, "tri")
			}
			fmt.Fprintf(&sb, " universe%v", cuts)
		}
		if n.local.on {
			var ops []string
			if n.local.base != 0 {
				ops = append(ops, fmt.Sprintf("@%d", n.local.base))
			}
			for _, o := range n.local.ops {
				if op := fmt.Sprint(o.level); o.diff {
					ops = append(ops, "!"+op)
				} else {
					ops = append(ops, op)
				}
			}
			fmt.Fprintf(&sb, " local%v", ops)
		}
		settled := map[int]bool{}
		if len(n.proof.certain) > 0 {
			fmt.Fprintf(&sb, " certain%v", n.proof.certain)
		}
		for _, j := range n.proof.certain {
			settled[j] = true
		}
		for _, s := range n.proof.suspects {
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
		if n.mode == leafCount && n.twins == 0 {
			for _, j := range n.op.NotEqual {
				if !settled[j] {
					fmt.Fprintf(&sb, " never[%d]", j)
				}
			}
		}
		if n.twins > 0 {
			fmt.Fprintf(&sb, " twins[%d]", n.twins)
			if len(n.op.NotEqual) > 0 {
				fmt.Fprintf(&sb, " less%v", n.op.NotEqual)
			}
		}
		if n.closed.choose > 1 {
			fmt.Fprintf(&sb, " choose[%d]", n.closed.choose)
		}
		switch {
		case n.closed.prodAll:
			sb.WriteString(" product[A m]")
		case len(n.closed.prod) > 1:
			sb.WriteString(" product[A B]")
		case n.closed.prod != nil:
			sb.WriteString(" product[A]")
		}
		switch n.sweep {
		case sweepScan:
			sb.WriteString(" sweep[scan]")
		case sweepLocal:
			sb.WriteString(" sweep[local]")
		case sweepWeighed:
			sb.WriteString(" sweep[weighed]")
		case sweepCount:
			sb.WriteString(" sweep[count]")
		}
		if n.hoist != nil {
			fmt.Fprintf(&sb, " hoist[%d]", n.hoist.depth)
		}
		if n.once {
			sb.WriteString(" once")
		}
		switch f := n.fac; {
		case f == nil:
		case f.at == n:
			sb.WriteString(" factor")
		case f.minus != nil:
			fmt.Fprintf(&sb, " weighed[%d]", f.at.depth)
		case f.in != nil:
			fmt.Fprintf(&sb, " weighed[%d: probe]", f.at.depth)
		default:
			fmt.Fprintf(&sb, " weighed[%d: search]", f.at.depth)
		}
		sb.WriteString("\n")
		for i, t := range n.closed.prod {
			walk(t, "A=B="[2*i:2*i+2])
		}
		if n.fac != nil && n.fac.minus != nil {
			walk(n.fac.minus, "B=")
		}
		if n.far != nil {
			walk(n.far, "X=")
		}
		for _, c := range n.children {
			walk(c, "")
		}
	}
	walk(p.root, "")
	return sb.String()
}

// TestLoweringSplit pins the lowering-time half of decisions 20, 21 and 22 for
// the plans the benchmark runs. House's leaf: v0 is adjacent to both sources by
// construction, v2 ~ v3 is the one open adjacency — a search without a c-map;
// with one, v2 is a factor and the question is not asked. Tailed-triangle's leaf is deg − 2 (merged
// trees; alone it is A of a product). 4-star's two deeper levels and the
// diamond/4-clique frontier consumers end their prefix at a loop index. 4-path's v1 < v0 bounds a vertex by its own extender,
// which no list position answers. Local rows: a clique's levels from v2 down, on
// a DAG over whole out-rows, symmetric over lower-triangular rows below v0; in a
// merged tree the branches with a trigger and no others; TC, diamond,
// tailed-triangle, 4-cycle and house have no trigger, so nothing of decision 21
// — no position map, no lookup — reaches them. Closed forms (decision 22) under
// auto: stars (from depth 1 on, in slice form), diamond, paths and tailed-triangle
// count their last two levels or more; every clique, every vertex-induced level
// (the leaf names the level above it), a node with two children and every
// merge-only lowering stay as they were. Far corners (decision 24) under the same
// gate: the cycle's v1, alone and as one child of a merged tree's, 5-motif-16's and
// 6-motif-74's v2; no listing lowering. Factors (decision 23) under the same gate:
// house's v2 and 5-motif-2's; no 4-vertex plan has a level to be one — depth 2 is
// closedForms' —, no clique, no vertex-induced plan, no merge-only lowering and,
// checked for every case, no listing one. Aux rows (decision 14) go to what is left:
// the vertex-induced 4-path keeps its spec, 5-motif-15 the one whose consumer was
// not counted away, house none, and no merge-only lowering any. Sweeps (decision
// 25): TC's v1 on a DAG and the vertex-induced census's unbounded v2 scan each
// candidate's row, 4-CL's v2 and 5-CL's v3 AND their set with it, the symmetric
// 4-clique's v2 (alone, merged, in the burst tree) below each candidate's position;
// house's v3 scans its leaf and the leaf's B in one pass, while 5-motif-2's B reads
// v1's row, not v3's, and that level walks. Hoists (decision 27): house's v3 and the
// 4-cycle's v2 without symmetry breaking read v0's row less an ancestor, so each
// sweep gathers from counters kept per v0; the vertex-induced house's v3 reads v0's
// row less two deeper rows and scans; 5-motif-2's v3 does not sweep. Every other last level below a lone
// child's parent is counted per candidate in one loop: bounded scans (K₂,₃'s v3, the
// census's bounded v2s), suspects (5-path, the merged tree's 4-path, frontier-dropped
// ancestors), aux consumers (the vertex-induced 4-path, 5-motif-15), and the closed
// forms of diamond, tailed-triangle and 4-path over v1's list, an operand that does
// not read v1 counted once per list. A leaf beside a sibling, below a mark or a
// build — the burst tree's 4-path — is still reached through the walk.
func TestLoweringSplit(t *testing.T) {
	g := graph.ErdosRenyi(40, 120, 1)
	merged, err := plan.CompileMulti(pattern.Motifs(4), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := plan.CompileMulti(burstPatterns(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	motifs, err := plan.CompileMotifs(4, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dag := func(k int) *plan.Plan {
		pl, err := plan.CompileCliqueDAG(k)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	for _, c := range []struct {
		name string
		pl   *plan.Plan
		o    Options
		want string
	}{
		{"4-CL on a DAG", dag(4), Options{}, `
v0 marks[] lonly universe[]
  v1 marks[] lonly
    v2 local[1] sweep[local]
      v3 local[@2 2]
`},
		{"5-CL on a DAG", dag(5), Options{}, `
v0 marks[] lonly universe[]
  v1 marks[] lonly
    v2 marks[] lonly local[1]
      v3 local[@2 2] sweep[local]
        v4 local[@3 3]
`},
		{"4-clique", mustCompile(t, pattern.KClique(4), plan.Options{}), Options{}, `
v0 marks[<v0] lonly universe[<v0 tri]
  v1 marks[<v0<v1] lonly
    v2 local[1] sweep[local]
      v3 bound@pos[2] local[@2 2]
`},
		{"4-clique, merge-only", mustCompile(t, pattern.KClique(4), plan.Options{}), PaperBaseline(1), `
v0
  v1
    v2
      v3 bound@pos[2]
`},
		{"TC on a DAG", dag(3), Options{}, `
v0 marks[]
  v1 sweep[scan]
    v2
`},
		// Far corner: v2 is the prefix of v1's list L = adj(v0) below v0 and v3 the
		// common neighbours of both below v0 — Σ C(|adj(x) ∩ L|, 2) over x < v0, one
		// sweep of L's rows per v0. Nothing is extended below v0 and nothing marked.
		{"4-cycle", mustCompile(t, pattern.FourCycle(), plan.Options{}), Options{}, `
v0
  v1
  X=v2 row[1] twins[2]
`},
		{"4-cycle, merge-only", mustCompile(t, pattern.FourCycle(), plan.Options{}), PaperBaseline(1), `
v0
  v1
    v2 bound@pos[1]
      v3
`},
		// A diamond on the edge v0-v1 and a vertex adjacent to both of its tips: the
		// tips v2 > v3 are twins in adj(v1) ∩ adj(v0), swept once per edge; v0 and v1
		// are adjacent to every tip and no candidates, so their C(·, 2) comes out again.
		{"5-motif-16", mustCompile(t, pattern.Motifs(5)[16], plan.Options{}), Options{}, `
v0 marks[]
  v1
    v2
    X=v3 row[2] twins[2] less[0 1]
`},
		// Three twins: C(·, 3) per x, growing by C(k, 2) per increment.
		{"6-motif-74", mustCompile(t, pattern.Motifs(6)[74], plan.Options{}), Options{}, `
v0 marks[]
  v1
    v2
    X=v3 row[2] twins[3] less[0 1]
`},
		// K₂,₃ has twins and, in the compiler's order, no far corner: neither v3 nor v4
		// ends at a loop position of the list above it, so no chain of prefixes hangs off v2.
		{"K₂,₃", mustCompile(t, pattern.FromEdges(5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}}), plan.Options{}), Options{}, `
v0 marks[]
  v1 marks[<v0]
    v2 bound@pos[1]
      v3 sweep[count]
        v4
`},
		// Prefix: v3 was v2's frontier below v2 — C(|N(v0) ∩ N(v1)|, 2) per edge, m
		// scanned off each v1's row in v1's one loop (decision 25).
		{"diamond, auto", mustCompile(t, pattern.Diamond(), plan.Options{}), Options{}, `
v0 marks[]
  v1 sweep[count]
    v2 choose[2]
`},
		// Factor: the roof v2 is named below it in NotEqual only. One descent per
		// edge with v2 unbound, weight |N(v0) ∩ N(v1)|, a v3 that is in that list —
		// one probe of the marks of v0 and v1 — leaving one fewer; v4's v2 ~ v3 probe
		// went with the NotEqual, and B is v4's candidates that are common
		// neighbours too, off v3's row. The plan's aux spec (v4 off a row built at
		// v1) had v2 as its gap's only loop: one lookup per row, so it is dropped.
		// Hoist (decision 27): v3's list is v0's row less v1, so the two scans per
		// candidate become one gather per edge from counters built once per v0.
		{"house", mustCompile(t, pattern.House(), plan.Options{}), Options{}, `
v0 marks[]
  v1 marks[]
    v2 factor
      v3 sweep[weighed] hoist[0] weighed[2: probe]
        v4 certain[0] weighed[2]
      B=v4 row[3 1 0] scan never[0]
`},
		// Vertex-induced, v3's list is v0's row less the rows of v1 and v2: what a
		// gather would take out again is most of v0's row, so it scans per candidate.
		{"house, vertex-induced", mustCompile(t, pattern.House(), plan.Options{Induced: true}), Options{}, `
v0 marks[] universe[]
  v1 marks[]
    v2 marks[] local[1]
      v3 local[!1 !2] sweep[scan]
        v4 never[0] never[2]
`},
		// Without symmetry breaking the 4-cycle has no far corner (v2 is no prefix of
		// v1's list), and v3 has a certain ancestor: a hoisted count kind.
		{"4-cycle, no symmetry breaking", mustCompile(t, pattern.FourCycle(), plan.Options{NoSymmetry: true}), Options{}, `
v0
  v1 marks[]
    v2 sweep[count] hoist[0]
      v3 certain[0]
`},
		// The triangle's v2 < v1 with two more neighbours of v0: the membership
		// probe is cut at v1 like v2 itself, so v1's mark keeps its prefix.
		{"5-motif-2", mustCompile(t, pattern.Motifs(5)[2], plan.Options{}), Options{}, `
v0 marks[]
  v1 marks[<v1]
    v2 factor
      v3 weighed[2: probe]
        v4 certain[1] weighed[2]
      B=v4 row[1 0] scan never[1]
`},
		// Aux rows come last (decision 14). v4 read spec 1's rows and is folded into
		// v3's product, so spec 1 is gone and nothing builds it; v3 itself still
		// stands and reads spec 0's row of v1 once per v2 (off the local rows, that is:
		// a task whose universe is over the cap). Before the reordering either spec
		// kept v3 and v4 enumerated.
		{"5-motif-15", mustCompile(t, pattern.Motifs(5)[15], plan.Options{}), Options{}, `
v0 builds[0] marks[] lonly universe[]
  v1 marks[] lonly
    v2 local[1] sweep[count]
      v3 aux#0 local[1] certain[2] product[A B]
    A=v3 row[2 0] scan local[2] certain[1]
    B=v3 row[2 1 0] scan local[2 1] never[2] never[1]
`},
		// Nothing to count — v3 names v2 —, so the consumer is kept as the plan has
		// it: v1's row less v0's, built at v0 and looked up once per v2.
		{"4-path, vertex-induced", mustCompile(t, pattern.KPath(4), plan.Options{Induced: true}), Options{}, `
v0 builds[0] marks[]
  v1
    v2 sweep[count]
      v3 aux#0 never[0] never[2]
`},
		{"house, merge-only", mustCompile(t, pattern.House(), plan.Options{}), PaperBaseline(1), `
v0
  v1
    v2
      v3
        v4 certain[0] check[2]
`},
		// Product: the tail is any neighbour of v0 but v1 and v2, and every v2 is
		// one (B = m, not evaluated): m·(deg v0 − 1) − m per edge, A once per v0.
		{"tailed-triangle", mustCompile(t, pattern.TailedTriangle(), plan.Options{}), Options{}, `
v0 marks[]
  v1 sweep[count]
    v2 product[A m]
  A=v2 row[0] certain[1] once
`},
		// (deg v0 − 1)(deg v1 − 1) − |N(v0) ∩ N(v1)| per edge; B scans v1's row
		// against the mark of v0, not v0's against a v1 no c-map rule reaches; m is
		// deg v0 − 1 whatever v1 is, so it is counted once per v0.
		{"4-path", mustCompile(t, pattern.KPath(4), plan.Options{}), Options{}, `
v0 marks[]
  v1 sweep[count]
    v2 certain[1] product[A B] once
  A=v2 row[1] certain[0]
  B=v2 row[1 0] scan never[1] never[0]
`},
		{"4-path, merge-only", mustCompile(t, pattern.KPath(4), plan.Options{}), PaperBaseline(1), `
v0
  v1
    v2
      v3 certain[0] check[2]
`},
		// C(deg, 3), C(deg, 4) and C(deg, 2) per start vertex — C(hi, t) − C(lo, t)
		// per hub slice [lo, hi) of it: one extension per task.
		{"4-star, auto", mustCompile(t, pattern.KStar(4), plan.Options{}), Options{}, `
v0
  v1 choose[3]
`},
		{"5-star", mustCompile(t, pattern.KStar(5), plan.Options{}), Options{}, `
v0
  v1 choose[4]
`},
		{"wedge", mustCompile(t, pattern.Wedge(), plan.Options{}), Options{}, `
v0
  v1 choose[2]
`},
		// v3 and v4 hang off v1 and v2: a product at depth 3, its B from v2's row
		// so that the chain reads level 1, two levels up and marked.
		{"5-path", mustCompile(t, pattern.KPath(5), plan.Options{}), Options{}, `
v0
  v1 marks[]
    v2 bound@pos[1] sweep[count]
      v3 certain[0] probe[2: 1~2] product[A B]
    A=v3 row[2] certain[0] probe[1: 1~2]
    B=v3 row[2 1] scan certain[0] never[2] never[1]
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
		// 4-cycle and 4-clique below the second v1. The star takes its closed form;
		// this order's 4-path extends v3 from v2, and the shared v2 has two children.
		// The cycle is one child of the second v1 and leaves it as a far corner; the
		// clique beside it is local, so v1's mark is read from the rows alone.
		{"six merged 4-vertex patterns", merged, Options{}, `
v0 marks[] universe[<v0 tri]
  v1 marks[]
    v2 bound@pos[1] choose[2]
    v2 sweep[count]
      v3 certain[0] probe[1: 1~2]
    v2
      v3 certain[1 2]
      v3
  v1 marks[<v0<v1] lonly
  X=v2 row[1] twins[2]
    v2 local[1] sweep[local]
      v3 bound@pos[2] local[@2 2]
`},
		// The benchmark's burst order: diamond and tailed-triangle below one v2
		// (two children: extended), 4-cycle, 4-clique, then 4-path — here v3 hangs
		// off v1, a product — and 4-star, C(deg, 3) at the second v1. The cycle's
		// levels are a far corner of the first v1, whose mark only the clique's rows
		// read now: a local task leaves it out.
		{"the burst tree", burst, Options{}, `
v0 marks[] universe[<v0 tri]
  v1 marks[<v0<v1] lonly
  X=v2 row[1] twins[2]
    v2
      v3 bound@pos[2]
      v3 certain[0 1]
    v2 local[1] sweep[local]
      v3 bound@pos[2] local[@2 2]
    v2 certain[1] product[A B]
  A=v2 row[1] certain[0]
  B=v2 row[1 0] scan never[1] never[0]
  v1 choose[3]
`},
		// K4 plus two vertices on one of its edges: v5 reuses v4's frontier,
		// which materialize already cut v2 and v3 out of — present again only
		// when resolve scans v1's row instead, so a search decides, not a proof.
		// Its K4 runs on rows; v4 then reuses v2's frontier as a list.
		{"frontier-dropped ancestors", mustCompile(t, pattern.FromEdges(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {4, 0}, {4, 1}, {5, 0}, {5, 1}}), plan.Options{}), Options{}, `
v0 marks[] lonly universe[]
  v1 marks[] lonly
    v2 local[1]
      v3 bound@pos[2] local[@2 2]
        v4 sweep[count]
          v5 bound@pos[4] check[2] check[3]
`},
		// Vertex-induced, every pair of levels is connected or disconnected by
		// some op, so nothing is left to probe or search.
		// The induced 4-star and tailed triangle read rows too (AND-NOT), and the
		// star's v1 has no bound, so the universe is all of adj(v0), rows whole.
		{"4-motifs, vertex-induced", motifs, Options{}, `
v0 marks[] universe[]
  v1 marks[]
    v2 bound@pos[1] local[!1] sweep[count]
      v3 bound@pos[2] local[@2 !2]
    v2 sweep[scan]
      v3 never[0] never[1]
    v2 local[1]
      v3 local[!1 !2] never[1] never[2]
      v3
  v1 marks[<v0]
    v2 bound@pos[1] sweep[count]
      v3
    v2 local[1] sweep[local]
      v3 bound@pos[2] local[@2 2]
`},
	} {
		if got := "\n" + lowering(lower(g, c.pl, c.o.withDefaults(), false)); got != c.want {
			t.Errorf("%s lowers to%swant%s", c.name, got, c.want)
		}
		if got := lowering(lower(g, c.pl, c.o.withDefaults(), true)); strings.Contains(got, "factor") || strings.Contains(got, "twins") {
			t.Errorf("%s, listing, has a factor node or a far corner:\n%s", c.name, got)
		}
	}
}

// TestClosedFormArithmetic holds choose and mulDiv to math/big: every binomial
// and running sum a chain of up to 14 levels can ask for over small lists, the
// lists where a naive m·(m−1)·(m−2) leaves 64 bits long before C(m, 3) leaves 63
// (3,000,000: 2.7e19 against 4.5e18), the largest products that fit, and
// saturation one step past each.
func TestClosedFormArithmetic(t *testing.T) {
	fits := func(x *big.Int) int64 {
		if !x.IsInt64() {
			return math.MaxInt64
		}
		return x.Int64()
	}
	for _, m := range []int64{0, 1, 2, 3, 5, 13, 14, 27, 28, 61, 62, 67, 1000, 2_097_152, 3_000_000, 3_810_778, 3_810_779, 1 << 31, 1 << 32, math.MaxInt64} {
		sum, exact := new(big.Int), true
		for k := 1; k <= 14; k++ {
			c := new(big.Int).Binomial(m, int64(k))
			exact = exact && sum.Add(sum, c).IsInt64() // past that Stats.Candidates wraps, as the walk's would
			got, gotSum := choose(m, k)
			if got != fits(c) || exact && gotSum != sum.Int64() {
				t.Errorf("choose(%d, %d) = %d, %d; want %d, %d", m, k, got, gotSum, fits(c), fits(sum))
			}
		}
	}
	if c, _ := choose(3_000_000, 3); c != 4_499_995_500_001_000_000 {
		t.Errorf("C(3000000, 3) = %d", c)
	}
	for _, c := range [][3]int64{
		{3_037_000_499, 3_037_000_499, 1}, {3_037_000_500, 3_037_000_500, 1}, // ⌊√MaxInt64⌋ squared: the largest square that fits, and the first that does not
		{math.MaxInt64, 1, 1}, {math.MaxInt64, 2, 2}, {math.MaxInt64, 2, 1}, {1 << 62, 2, 1}, {1<<62 - 1, 2, 1},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64}, {math.MaxInt64, math.MaxInt64, math.MaxInt64 - 1},
		{0, math.MaxInt64, 1}, {6, 7, 3}, {4_611_686_014_132_420_609, 2, 1},
	} {
		want := new(big.Int).Mul(big.NewInt(c[0]), big.NewInt(c[1]))
		if got := mulDiv(c[0], c[1], c[2]); got != fits(want.Quo(want, big.NewInt(c[2]))) {
			t.Errorf("mulDiv(%d, %d, %d) = %d, want %d", c[0], c[1], c[2], got, fits(want))
		}
	}
}

// TestAuxRowFinger drives auxRow's position finger the four ways keys can
// arrive — an ascending run with short and long gaps, a restart, a descending
// run, keys outside the universe — and holds every answer to setops.Index and
// to the row the directive defines.
func TestAuxRowFinger(t *testing.T) {
	g := graph.RMAT(8, 1500, 0.57, 0.19, 0.19, 5)
	o := Options{Threads: 1}.withDefaults()
	prog := lower(g, mustCompile(t, pattern.KPath(4), plan.Options{Induced: true}), o, false)
	w := newWorker(g, prog, o)
	root := prog.root
	leaf := root.children[0].children[0].children[0]
	if root.builds == nil || leaf.src != srcAux {
		t.Fatal("the vertex-induced 4-path must build its aux spec at v0 and consume it at v3")
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
	w.emb[0] = v0
	w.mark(root) // the spec's fold chain scans the c-map for v0's row
	defer w.unmark(root)
	w.auxActivate(root)
	defer w.auxRelease(root)
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
		if want := setops.Difference(nil, g.Adj(x), universe); fmt.Sprint(row) != fmt.Sprint(want) {
			t.Fatalf("key %d (%d): row %v, want %v", i, x, row, want)
		}
	}
	if searched := w.stats.Searches - before; searched == 0 || searched >= int64(len(keys))-int64(len(universe)) {
		t.Fatalf("%d searches over %d keys: the ascending run of %d must step, the long gaps must search", searched, len(keys), len(universe))
	}
}
