package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"regexp"
	"slices"
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

// catalogPlans is every connected 3–6-vertex motif, edge- and vertex-induced, the
// merged 4- and 5-motif trees of both kinds, and the DAG clique plans 3…6.
func catalogPlans(t *testing.T) []*plan.Plan {
	t.Helper()
	var plans []*plan.Plan
	add := func(pl *plan.Plan, err error) {
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	for _, induced := range []bool{false, true} {
		for k := 3; k <= 6; k++ {
			for _, m := range pattern.Motifs(k) {
				add(plan.Compile(m, plan.Options{Induced: induced}))
			}
		}
		add(plan.CompileMulti(pattern.Motifs(4), plan.Options{Induced: induced}))
		add(plan.CompileMulti(pattern.Motifs(5), plan.Options{Induced: induced}))
	}
	for k := 3; k <= 6; k++ {
		add(plan.CompileCliqueDAG(k))
	}
	return plans
}

// TestLoweringInvariants holds every lowering pass (DESIGN.md decision 18's table)
// to the postcondition its comment states, over the whole catalog × {auto, merge}
// × {count, list}: what a pass leaves is what the passes after it, and the
// engine, may assume. It also counts the single patterns a pass reaches, so that
// a pass that stops reaching one shows here and not only in the clock: the
// three 5-vertex and twenty 6-vertex patterns with a factor (decision 23), the
// four with a far corner (decision 24); the nodes a sweep reaches (decision
// 25): 283 of the 309 whose only child is count-only, 72 of the 82 closed forms;
// and the sweeps that hoist (decision 27): of the 42 single-pattern sweeps whose
// list is cut, unbounded, from the row of a level above their parent's (9 scan,
// 1 weighed, 32 count), one, house's weighed one. 21 lists are cut by deeper rows
// too — vertex-induced chains, all 9 scans and 12 counts —, where what the gather
// takes out again is most of the row; each of the other 20, count kinds, has a
// leaf that fails one of the rule's tests (a suspect, a bound, an aux source,
// another row than the candidate's). The arc memo's reads (decision 29): four
// count-only nodes — the diamond's m, the 4-path's B, 5-motif-8's and
// 6-motif-13's — and one factor walk, house's.
func TestLoweringInvariants(t *testing.T) {
	g := graph.ErdosRenyi(40, 120, 1)
	var sides, factors, locals, kept, fars int
	var swept [6]int      // nodes by sweep kind
	var counted [4]int    // count sweeps of a leaf with a suspect, an aux source, a frontier source, a bounded scan
	var reached [2][2]int // auto, counting: nodes whose only child is count-only, closed forms; how many, how many swept
	var onceOps int       // operands of swept closed forms counted once per list
	var bearing [2][7]int // single-pattern programs with a factor, with a far corner, by pattern size
	var hoists [2][6]int  // single-pattern sweeps by kind: lists cut from the row of a level above the parent's, hoisted
	var arcs [2]int       // single-pattern programs' arc memo reads: count-only nodes, factor walks
	var pairs []string    // single-pattern programs' pair loops
	var halves []string   // single-pattern programs' half-sums
	for _, pl := range catalogPlans(t) {
		for _, o := range []Options{{}, {Kernel: KernelMergeOnly}} {
			for _, listing := range []bool{false, true} {
				p := lower(g, pl, o.withDefaults(), listing)
				name := fmt.Sprintf("%s under %v, listing=%v", pl.Patterns[0].Name(), o.Kernel, listing)
				bad := func(n *node, format string, args ...any) {
					t.Helper()
					t.Fatalf("%s, depth %d: %s\n%s", name, n.depth, fmt.Sprintf(format, args...), lowering(p))
				}
				consumers, onceWant := map[int]bool{}, map[*node]bool{}
				var marked, local, reads bool
				factors0, fars0 := factors, fars
				p.each(func(n *node, path []*node) {
					// build: the path is the ancestors, a leaf is count-only or visited, and
					// no plan leaf memoizes its list (why there is no materializing leaf mode).
					if len(path) != n.depth || n.depth > 0 && path[n.depth-1].depth != n.depth-1 {
						bad(n, "each handed a path of %d ancestors", len(path))
					}
					if leaf := len(n.children) == 0 && n.far == nil; leaf != (n.mode != interior) || leaf && n.op.MemoizeFrontier && reflect.DeepEqual(n.closed, closed{}) || listing && n.mode == leafCount {
						bad(n, "mode %d with %d children, MemoizeFrontier=%v", n.mode, len(n.children), n.op.MemoizeFrontier)
					}
					if n.mode != leafCount && !reflect.DeepEqual(n.proof, proof{}) {
						bad(n, "a proof on a node that counts nothing")
					}
					// closedForms: a closed form is a count-only leaf, a product at depth ≥ 2;
					// its side nodes are plain count-only leaves of its own depth, off the aux rows.
					c := n.closed
					if (c.choose > 1 || c.prod != nil) && (n.mode != leafCount || n.depth < 1 || c.prod != nil && n.depth < 2 || c.choose > 1 && c.prod != nil || len(c.prod) > 2 || c.prodAll && len(c.prod) != 1) {
						bad(n, "closed form %+v on mode %d", c, n.mode)
					}
					ts := c.prod
					if n.fac != nil && n.fac.minus != nil {
						ts = append(slices.Clone(ts), n.fac.minus)
					}
					for _, s := range ts {
						sides++
						if s.depth != n.depth || s.children != nil || s.mode != leafCount || s.closed.prod != nil || s.closed.choose > 1 || s.fac != nil || s.op.AuxBase != plan.NoLevel || s.builds != nil {
							bad(n, "side node at depth %d: %+v", s.depth, s.op)
						}
					}
					// localNodes: local from depth 2 on, looking up shallower levels only.
					if u := n.local; u.on && n.depth < 2 || !u.on && !reflect.DeepEqual(u, localUse{}) || u.look>>max(n.depth, 1) != 0 || u.base >= max(n.depth, 1) {
						bad(n, "local %+v", u)
					}
					if n.local.on {
						local = true
						locals++
					}
					// factorNodes: one factor on a path, an interior node at depth ≥ 2; at and
					// below it nothing is local or a closed form, every op below has dropped
					// the factor's level, and exactly the leaves carry a B.
					if f := n.fac; f != nil {
						factors++
						d := f.at.depth
						if f.at != n && (d >= n.depth || path[d] != f.at || slices.Contains(n.op.NotEqual, d)) || f.at == n && (n.mode != interior || d < 2) {
							bad(n, "factor at depth %d", d)
						}
						if n.local.on || c.choose > 1 || c.prod != nil || (f.minus != nil) != (n.mode == leafCount) || f.at == n && f.in != nil {
							bad(n, "at or below a factor: local %v, closed %+v, minus %v, in %v", n.local.on, c, f.minus != nil, f.in)
						}
					} else if n.depth > 0 && path[n.depth-1].fac != nil && slices.Contains(path[n.depth-1].children, n) {
						bad(n, "no factor below one")
					}
					// farSides: a far corner hangs one level below an interior node that is
					// not under a factor, stands for two levels or more, and is a
					// plain count-only node whose op names no level it stands for — none below
					// the node it hangs off, whose list is the rows it sweeps — and no chain.
					if f := n.far; f != nil {
						fars++
						named := slices.Concat(f.op.Connected, f.op.Disconnected, f.op.UpperBounds, f.op.NotEqual)
						if n.mode != interior || n.depth < 1 || n.fac != nil || f.depth != n.depth+1 || f.twins < 2 || f.op.Extender != n.depth ||
							slices.ContainsFunc(named, func(l int) bool { return l >= n.depth }) || len(f.adj)+len(f.op.Connected)+len(f.op.Disconnected) > 0 ||
							f.mode != leafCount || f.children != nil || f.far != nil || f.fac != nil || f.local.on || f.src != srcAdj || f.op.AuxBase != plan.NoLevel ||
							!reflect.DeepEqual(f.closed, closed{}) || !reflect.DeepEqual(f.proof, proof{}) {
							bad(n, "far corner %+v of %d twins", f.op, f.twins)
						}
					}
					if (n.twins > 0) != (n.depth > 0 && path[n.depth-1].far == n) {
						bad(n, "twins=%d on a node that is its parent's far corner: %v", n.twins, n.twins == 0)
					}
					// auxNodes: a consumer reads a kept spec its activation level builds, from
					// above the factor if it is below one; builds names kept specs of this level.
					if n.src == srcAux {
						kept++
						i := n.srcIdx
						if p.aux[i].spec != &pl.AuxSpecs[i] || i != n.op.AuxBase || !slices.Contains(path[p.aux[i].spec.Level].builds, i) || n.fac != nil && p.aux[i].spec.Level >= n.fac.at.depth {
							bad(n, "consumer of aux spec %d", i)
						}
						consumers[i] = true
					}
					for _, i := range n.builds {
						if p.aux[i].spec == nil || p.aux[i].spec.Level != n.depth {
							bad(n, "builds %v", n.builds)
						}
					}
					// markLevels: a marked level has a bit in the c-map's byte and inserts below
					// levels up to its own; a masked chain reads marked levels only.
					m := n.cmap
					if m.marked && (n.depth >= cmLevels || m.markBelow>>(n.depth+1) != 0) || !m.marked && (m.markBelow != 0 || m.lonly) {
						bad(n, "c-map use %+v", m)
					}
					marked = marked || m.marked
					masks := [][]chainOp{m.scan}
					if n.fac != nil {
						masks = append(masks, n.fac.in)
					}
					for _, s := range n.proof.suspects {
						if s.probe {
							masks = append(masks, s.ops)
						}
					}
					for _, ops := range masks {
						for _, o := range ops {
							ls := uint32(o.need | o.avoid)
							if !o.masked() { // a suspect's pairs
								ls = 1 << o.level
							}
							for ; ls != 0; ls &= ls - 1 {
								if l := bits.TrailingZeros32(ls); l >= n.depth || !path[l].cmap.marked {
									bad(n, "chain %+v reads level %d, not marked", ops, l)
								}
							}
						}
					}
					// sweepLeaves: a kind iff n — no factor node, far corner, mark or build — has
					// one child c, count-only. Below a factor, weighed where c and its B each scan
					// the candidate's row, unbounded and suspect-free; nothing else. Elsewhere a
					// closed form counts, its operands once where they count the same under every
					// vertex of n's list: off plain adjacency, no local row, suspect or chain, and
					// naming n's level nowhere (a certain one unbounded only); such a scan with no
					// certain ancestor either scans; n's local set AND the row, no NotEqual, bounded
					// by the candidate at most, is local; everything else counts. Only under auto,
					// and never listing.
					kind, d := noSweep, n.depth
					if o.Kernel == KernelAuto && n.mode == interior && d >= 1 && len(n.children) == 1 && (n.fac == nil || n.fac.at != n) && n.far == nil && n.builds == nil && !m.marked {
						scans := func(s *node) bool {
							return !s.local.on && s.src == srcAdj && s.op.Extender == d && len(s.cmap.scan) == 1 && s.cmap.scan[0].masked() &&
								len(s.proof.suspects)+len(s.op.UpperBounds) == 0
						}
						switch c := n.children[0]; {
						case c.mode != leafCount:
						case n.fac != nil:
							if scans(c) && scans(c.fac.minus) {
								kind = sweepWeighed
							}
						case c.closed.choose > 1 || c.closed.prod != nil:
							kind = sweepCount
							for _, s := range append([]*node{c}, c.closed.prod...) {
								named := slices.Contains(slices.Concat([]int{s.op.Extender, s.op.FrontierBase}, s.op.Connected, s.op.Disconnected, s.op.UpperBounds, s.op.IntersectWith, s.op.DifferenceWith), d) ||
									len(s.op.UpperBounds) > 0 && slices.Contains(s.proof.certain, d)
								onceWant[s] = s.src == srcAdj && !s.local.on && len(s.proof.suspects)+len(s.adj) == 0 && !named
							}
						case scans(c) && len(c.proof.certain) == 0:
							kind = sweepScan
						case c.local.on && n.local.on && c.local.base == d && slices.Equal(c.local.ops, []chainOp{{level: d}}) &&
							len(c.op.NotEqual) == 0 && (len(c.op.UpperBounds) == 0 || slices.Equal(c.op.UpperBounds, []int{d})):
							kind = sweepLocal
						default:
							kind = sweepCount
							bounded := c.src == srcAdj && c.op.Extender == d && c.cmap.scan != nil && len(c.op.UpperBounds) > 0
							for i, yes := range [4]bool{c.proof.suspects != nil, c.src == srcAux, c.src == srcFrontier, bounded} {
								if yes {
									counted[i]++
								}
							}
						}
					}
					// A local sweep's parent n — no far corner, build or mark a local task reads —
					// runs both levels as one loop over its bits where its list is its own local
					// set or, at depth 1 and off plain adjacency, the universe — below v0 iff the
					// universe is —, and the child's set is n's (level 0's at depth 1) AND the row of
					// n's vertex, with no NotEqual, bounded by n at most. The child's own kind is
					// checked where each reaches it.
					if len(n.children) == 1 && n.far == nil && n.builds == nil && (!m.marked || m.lonly) && n.children[0].sweep == sweepLocal {
						c, base := n.children[0], d
						if d == 1 {
							base = 0
						}
						own := n.local.on || d == 1 && n.src == srcAdj && len(n.adj) == 0 && (len(n.op.UpperBounds) > 0 || !p.lbelow)
						if own && c.local.base == base && slices.Equal(c.local.ops, []chainOp{{level: d}}) && len(c.op.NotEqual) == 0 &&
							(len(c.op.UpperBounds) == 0 || slices.Equal(c.op.UpperBounds, []int{d})) {
							kind = sweepPair
						}
					}
					if n.sweep != kind || n.sweep != noSweep && (o.Kernel == KernelMergeOnly || listing) {
						bad(n, "sweep kind %d, the rule gives %d", n.sweep, kind)
					}
					if n.sweep == sweepPair && (n.far != nil || n.hoist != nil || n.builds != nil || m.marked && !m.lonly || n.fac != nil) {
						bad(n, "a pair loop over a node with a far corner, hoist, build, read mark or factor")
					}
					if n.sweep == sweepPair && o.Kernel == KernelAuto && !listing && len(pl.Patterns) == 1 {
						pairs = append(pairs, pl.Patterns[0].Name()+map[bool]string{true: ",oriented"}[pl.RequiresDAG]+map[bool]string{true: ",induced"}[pl.Induced])
					}
					// hoistSweeps: a scan, weighed or count sweep whose list is the row of a level
					// o ≤ d−2 less NotEqual ancestors — plain adjacency, no chain, no bound —
					// gathers from o's counters where its child (and the child's B) scans the
					// candidate's row under a mask with a need bit, unbounded, suspect-free and
					// plain; B needing all that the child needs, and the factor's list inside the
					// node's: F's op reads the owner's row and each NotEqual ancestor's, or
					// excludes it. Every level the gather reads inserts its whole row into the
					// c-map, so the gather finds every element.
					var owner *node
					row := kind != noSweep && kind != sweepLocal && kind != sweepPair && n.src == srcAdj && n.op.Extender <= d-2 && len(n.op.UpperBounds) == 0
					if row && len(n.adj) == 0 {
						c := n.children[0]
						gathers := func(s *node) bool {
							return s.src == srcAdj && !s.local.on && s.op.Extender == d && len(s.cmap.scan) == 1 && s.cmap.scan[0].need != 0 &&
								s.proof.suspects == nil && len(s.op.UpperBounds) == 0 && s.closed.choose < 2 && s.closed.prod == nil
						}
						inside := func() bool {
							fop := n.fac.at.op
							for _, j := range append([]int{n.op.Extender}, n.op.NotEqual...) {
								src := fop.Extender == j || slices.Contains(fop.Connected, j)
								if !src && (j == n.op.Extender || !slices.Contains(fop.NotEqual, j)) {
									return false
								}
							}
							return true
						}
						if gathers(c) && (kind != sweepWeighed || c.fac.minus.cmap.scan[0].need&c.cmap.scan[0].need == c.cmap.scan[0].need && inside()) {
							owner = path[n.op.Extender]
						}
					}
					if n.hoist != owner {
						bad(n, "hoisted to %v, the rule gives %v", n.hoist, owner)
					}
					if owner != nil {
						for ls := n.children[0].cmap.scan[0].need; ls != 0; ls &= ls - 1 {
							if l := path[bits.TrailingZeros8(ls)]; l.cmap.markBelow != 0 {
								bad(n, "the gather reads level %d, which inserts only below %b", l.depth, l.cmap.markBelow)
							}
						}
					}
					if o.Kernel == KernelAuto && !listing && len(pl.Patterns) == 1 && row {
						hoists[0][kind]++
						if owner != nil {
							hoists[1][kind]++
						}
					}
					swept[n.sweep]++
					if o.Kernel == KernelAuto && !listing {
						if cs := n.children; n.mode == interior && len(cs) == 1 && cs[0].mode == leafCount {
							reached[0][0]++
							reached[0][1] += min(int(n.sweep), 1)
						}
						for _, c := range n.children {
							if c.closed.choose > 1 || c.closed.prod != nil {
								reached[1][0]++
								reached[1][1] += min(int(n.sweep), 1)
							}
						}
					}
					if n.once {
						onceOps++
					}
					// arcCounts: an edge's common-neighbour count — a scan of the extender's row
					// (of F's vertices, for a hoisted weighed walk), unbounded, plain and
					// suspect-free, off the local rows, under a mask that needs one level a — in a
					// symmetric program that counts under auto, read at the extender's position in
					// a's bare row, or at F's vertices where F's op reads a's row. a's mark holds
					// its whole row, or the count would be of a prefix.
					edge := func(t *node) (int, bool) {
						if t.src != srcAdj || t.local.on || len(t.op.UpperBounds) > 0 || t.proof.suspects != nil || len(t.cmap.scan) != 1 {
							return 0, false
						}
						m := t.cmap.scan[0]
						return bits.TrailingZeros8(m.need), m.avoid == 0 && bits.OnesCount8(m.need) == 1
					}
					arc, a := false, 0
					switch counts := o.Kernel == KernelAuto && !listing && !pl.RequiresDAG; {
					case !counts:
					case n.mode == leafCount && n.depth >= 2 && path[n.depth-1].sweep != sweepWeighed:
						var ok bool
						if a, ok = edge(n); ok && n.op.Extender > a {
							l := path[n.op.Extender]
							arc = l.op.Extender == a && l.src == srcAdj && len(l.adj) == 0 && len(l.op.NotEqual) == 0 && (l.fac == nil || l.fac.at != l)
						}
					case n.hoist != nil && n.sweep == sweepWeighed:
						var ok bool
						a, ok = edge(n.children[0])
						arc = ok && (n.fac.at.op.Extender == a || slices.Contains(n.fac.at.op.Connected, a))
					}
					if n.arc != arc || arc && path[a].cmap.markBelow != 0 {
						bad(n, "reads the arc memo %v, the rule gives %v; level %d inserts below %b", n.arc, arc, a, path[a].cmap.markBelow)
					}
					reads = reads || arc
					if arc && len(pl.Patterns) == 1 {
						arcs[min(int(n.mode), 1)^1]++
					}
					// halfSums: a count sweep, unhoisted and off the local rows, over the
					// whole plain row of its extender a — no chain, NotEqual or bound — whose
					// only child counts, off plain adjacency, exactly row(a) ∩ row(v) below v:
					// those two sources, no Disconnected, nothing in its proof; with no closed
					// form, or a product whose only operand is an A counted once — m·A or
					// m·A − m, linear in m. Symmetric programs that count under auto only, so
					// never merge-only, listing or oriented; and no vertex-induced plan.
					var half int64
					if o.Kernel == KernelAuto && !listing && !pl.RequiresDAG && n.sweep == sweepCount && n.hoist == nil && !n.local.on &&
						n.src == srcAdj && len(n.adj)+len(n.op.NotEqual)+len(n.op.UpperBounds) == 0 {
						c, a := n.children[0], n.op.Extender
						srcs := slices.Sorted(slices.Values(append([]int{c.op.Extender}, c.op.Connected...)))
						linear := c.closed.choose < 2 && (c.closed.prod == nil || len(c.closed.prod) == 1 && c.closed.prod[0].once)
						if c.src == srcAdj && !c.local.on && slices.Equal(srcs, []int{a, d}) && len(c.op.Disconnected) == 0 &&
							slices.Equal(c.op.UpperBounds, []int{d}) && reflect.DeepEqual(c.proof, proof{}) && linear {
							half = 2
						}
					}
					if n.half != half || half != 0 && pl.Induced {
						bad(n, "sums a's index slots over %d, the rule gives %d (induced %v)", n.half, half, pl.Induced)
					}
					reads = reads || half != 0
					if half != 0 && len(pl.Patterns) == 1 {
						halves = append(halves, pl.Patterns[0].Name()+map[bool]string{true: ",induced"}[pl.Induced])
					}
					// A merge-only lowering is build's tree and nothing else; a listing one
					// counts nothing in closed form.
					if o.Kernel == KernelMergeOnly && (n.local.on || n.fac != nil || n.builds != nil || n.src == srcAux || !reflect.DeepEqual(m, cmapUse{})) ||
						(o.Kernel == KernelMergeOnly || listing) && (n.fac != nil || n.far != nil || !reflect.DeepEqual(c, closed{})) {
						bad(n, "state of a pass that did not run")
					}
				})
				p.each(func(n *node, _ []*node) {
					if n.once != onceWant[n] {
						bad(n, "once=%v, the rule gives %v", n.once, onceWant[n])
					}
				})
				if len(pl.Patterns) == 1 {
					bearing[0][pl.K] += min(factors-factors0, 1)
					bearing[1][pl.K] += min(fars-fars0, 1)
				}
				for i := range p.aux {
					if (p.aux[i].spec != nil) != consumers[i] {
						t.Fatalf("%s: aux spec %d kept=%v, consumed=%v", name, i, p.aux[i].spec != nil, consumers[i])
					}
				}
				if p.marks != marked || p.local != local || (o.Kernel == KernelMergeOnly || listing) && p.closed || o.Kernel == KernelMergeOnly && p.aux != nil || p.arcs != reads {
					t.Fatalf("%s: program says marks=%v local=%v closed=%v aux=%v arcs=%v, its nodes marks=%v local=%v arcs=%v", name, p.marks, p.local, p.closed, p.aux != nil, p.arcs, marked, local, reads)
				}
				// A store that is not a heap graph — a mapped file, a sharded directory — has
				// no arc memo: the same lowering, its counts scanned.
				if q := lower(struct{ graph.Store }{g}, pl, o.withDefaults(), listing); q.arcs || reads && lowering(q) != regexp.MustCompile(` arc| slots/\d`).ReplaceAllString(lowering(p), "") {
					t.Fatalf("%s: on a store that is not a heap graph, arcs=%v:\n%s", name, q.arcs, lowering(q))
				}
			}
		}
	}
	if sides == 0 || factors == 0 || locals == 0 || kept == 0 || fars == 0 || slices.Contains(swept[1:], 0) || slices.Contains(counted[:], 0) || onceOps == 0 {
		t.Fatalf("the catalog exercised %d side nodes, %d nodes at or below a factor, %d local nodes, %d aux consumers, %d far corners, %d swept scans, %d swept local rows, "+
			"%d pair loops, %d weighed sweeps, %d count sweeps — %v of a leaf with a suspect, an aux source, a frontier source, a bounded scan — and %d once operands: a pass is vacuous here",
			sides, factors, locals, kept, fars, swept[sweepScan], swept[sweepLocal], swept[sweepPair], swept[sweepWeighed], swept[sweepCount], counted, onceOps)
	}
	if reached != [2][2]int{{309, 283}, {82, 72}} {
		t.Errorf("catalog nodes whose only child is count-only, and closed forms, each with how many sweep: %v; want 283 of 309 and 72 of 82", reached)
	}
	if hoists != [2][6]int{{sweepScan: 9, sweepWeighed: 1, sweepCount: 32}, {sweepWeighed: 1}} {
		t.Errorf("single-pattern sweeps whose list is cut from the row of a level above their parent's, by kind, and how many hoist: %v; "+
			"want 9 scan, 1 weighed, 32 count, and house's weighed one", hoists)
	}
	if arcs != [2]int{4, 1} {
		t.Errorf("single-pattern arc memo reads, count-only nodes and factor walks: %v; want the diamond's m, the 4-path's B, "+
			"5-motif-8's and 6-motif-13's, and house's walk of F", arcs)
	}
	if want := []string{"tailed-triangle"}; !slices.Equal(halves, want) {
		t.Errorf("single-pattern half-sums: %v; want %v — its v2 < v1 over the whole row of v0, product[A m], and no other plan of the catalog", halves, want)
	}
	if want := []string{"4-clique", "5-motif-20", "6-motif-111", "4-clique,induced", "5-motif-20,induced", "6-motif-111,induced",
		"4-clique,oriented", "5-clique,oriented", "6-clique,oriented"}; !slices.Equal(pairs, want) {
		t.Errorf("single-pattern pair loops: %v; want %v — the 4-, 5- and 6-clique, symmetric and oriented, and no other", pairs, want)
	}
	if bearing != [2][7]int{{5: 3, 6: 20}, {4: 1, 5: 1, 6: 2}} {
		t.Errorf("catalog patterns with a factor, with a far corner, by size: %v; want 3 of 5 vertices (house, 5-motif-2, -9) and 20 of 6, "+
			"then the 4-cycle, 5-motif-16, 6-motif-74 and -95", bearing)
	}
}

// reach collects every *node reachable from v through any field, slice or
// pointer: what a worker handed the program could come to evaluate.
func reach(v reflect.Value, seen map[*node]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Type() == reflect.TypeOf((*node)(nil)) {
			n := (*node)(v.UnsafePointer())
			if seen[n] {
				return
			}
			seen[n] = true
		}
		reach(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reach(v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			reach(v.Index(i), seen)
		}
	}
}

// TestWeighedHoistNeedsFInsideL: a weighed gather walks the factor's list F as if
// every vertex of it were in the hoisted list L, so hoistSweeps hoists house's v3
// (L = N(v0) less v1) only while F's op reads v0's row and reads v1's row or
// excludes v1. No catalog plan breaks the rule; the factor's op is edited here.
func TestWeighedHoistNeedsFInsideL(t *testing.T) {
	g := graph.ErdosRenyi(40, 120, 1)
	p := lower(g, mustCompile(t, pattern.House(), plan.Options{}), Options{}.withDefaults(), false)
	var n *node
	p.each(func(m *node, _ []*node) {
		if m.hoist != nil && m.sweep == sweepWeighed {
			n = m
		}
	})
	if n == nil || n.op.Extender != 0 || !slices.Equal(n.op.NotEqual, []int{1}) {
		t.Fatalf("house's v3 is no weighed hoist over N(v0) less v1\n%s", lowering(p))
	}
	orig := n.fac.at.op
	for _, c := range []struct {
		name        string
		ext         int
		conn, notEq []int
		hoists      bool
	}{
		{"F = N(v1), v0's row unread", 1, nil, nil, false},
		{"F = N(v0), v1 kept", 0, nil, nil, false},
		{"F = N(v0) less v1", 0, nil, []int{1}, true},
		{"F = N(v0) ∩ N(v1)", 0, []int{1}, nil, true},
	} {
		op := *orig
		op.Extender, op.Connected, op.NotEqual = c.ext, c.conn, c.notEq
		n.fac.at.op, n.hoist = &op, nil
		p.hoistSweeps()
		if got := n.hoist != nil; got != c.hoists {
			t.Errorf("%s: hoisted %v, want %v", c.name, got, c.hoists)
		}
	}
	n.fac.at.op = orig
}

// TestEachVisitsEveryNode: program.each hands its callback every node reachable
// from the root exactly once — by reflection, so a side-node field added to node
// (or to a sub-struct of it) that each does not follow fails here, not in a pass
// that silently skipped it.
func TestEachVisitsEveryNode(t *testing.T) {
	g := graph.ErdosRenyi(40, 120, 1)
	var sides int
	for _, pl := range catalogPlans(t) {
		p := lower(g, pl, Options{}.withDefaults(), false)
		want := map[*node]bool{}
		reach(reflect.ValueOf(p.root), want)
		got := map[*node]int{}
		p.each(func(n *node, path []*node) {
			got[n]++
			if n.depth > 0 && !slices.Contains(path[n.depth-1].children, n) {
				sides++
			}
		})
		for n := range want {
			if got[n] != 1 {
				t.Fatalf("%s: each visited a reachable node at depth %d %d times\n%s", pl.Patterns[0].Name(), n.depth, got[n], lowering(p))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: each visited %d nodes, %d are reachable", pl.Patterns[0].Name(), len(got), len(want))
		}
	}
	if sides == 0 {
		t.Fatal("no program of the catalog has a side node: the test is vacuous")
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

// BenchmarkLeaf is the per-leaf constant of a count-only last level, the figure
// decision 25 lowered, at one thread, in ns per Stats.LeafCountsSkippedMaterialize
// — the leaf's kernel and whatever the walk spends reaching it: TC (a c-map scan
// per leaf), 4-CL and 5-CL (a local-row AND per leaf, its level and the one above
// it one loop over set bits, decision 30) on an oriented RMAT graph, the 4-clique
// (a bounded AND, the same pair loop) on the same graph symmetric, house (a factor's leaf and
// its B, hoisted: one gather per edge from counters kept per v0, each gather one
// leaf per operand, decision 27) on a smaller, denser symmetric RMAT graph, the
// benchmark's house shape; and the count loop: the triangle (a bounded scan), the
// diamond (C(m, 2), m an unbounded scan) and the tailed-triangle (m·A − m, m a
// bounded scan, A once per list) on the symmetric graph, the 5-path (a product
// whose m has a suspect) on house's. It fails unless sweepLeaves gave each plan its kind — a bounded
// leaf where the leg is one (a pair's child bounded), a hoisted sweep where it is one — and, for a local or
// pair kind, tasks ran on the rows;
// a hoisted sweep also unless its gathers took no list: against the same plan with the hoists cleared,
// where every sweep materializes its list and searches it for v1, each gather saves that search.
func BenchmarkLeaf(b *testing.B) {
	sym := graph.RMAT(13, 1<<16, 0.57, 0.19, 0.19, 7)
	dag, dense := sym.Orient(), graph.RMAT(10, 8000, 0.45, 0.22, 0.22, 7)
	cliqueDAG := func(k int) *plan.Plan {
		pl, err := plan.CompileCliqueDAG(k)
		if err != nil {
			b.Fatal(err)
		}
		return pl
	}
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		pl      *plan.Plan
		kind    sweepKind
		bounded bool
		hoisted bool
	}{
		{"TC", dag, cliqueDAG(3), sweepScan, false, false},
		{"4-CL", dag, cliqueDAG(4), sweepPair, false, false},
		{"5-CL", dag, cliqueDAG(5), sweepPair, false, false},
		{"house", dense, mustCompile(b, pattern.House(), plan.Options{}), sweepWeighed, false, true},
		{"4-clique", sym, mustCompile(b, pattern.KClique(4), plan.Options{}), sweepPair, true, false},
		{"triangle", sym, mustCompile(b, pattern.Triangle(), plan.Options{}), sweepCount, true, false},
		{"diamond", sym, mustCompile(b, pattern.Diamond(), plan.Options{}), sweepCount, false, false},
		{"tailed-triangle", sym, mustCompile(b, pattern.TailedTriangle(), plan.Options{}), sweepCount, true, false},
		{"5-path", dense, mustCompile(b, pattern.KPath(5), plan.Options{}), sweepCount, false, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, err := NewEngine(c.g, c.pl, Options{Threads: 1})
			if err != nil {
				b.Fatal(err)
			}
			swept := false
			e.prog.each(func(n *node, _ []*node) {
				swept = swept || n.sweep == c.kind && c.bounded == (len(n.children[0].op.UpperBounds) > 0) && c.hoisted == (n.hoist != nil)
			})
			warm := e.Mine()
			if !swept || (c.kind == sweepLocal || c.kind == sweepPair) && warm.Stats.LocalRows == 0 {
				b.Fatalf("the sweep did not fire: kind %d (bounded %v, hoisted %v) lowered %v, %d local rows", c.kind, c.bounded, c.hoisted, swept, warm.Stats.LocalRows)
			}
			if c.hoisted {
				bare, err := NewEngine(c.g, c.pl, Options{Threads: 1})
				if err != nil {
					b.Fatal(err)
				}
				bare.prog.each(func(n *node, _ []*node) { n.hoist = nil })
				s := bare.Mine().Stats
				if gathers := warm.Stats.ClosedForms - s.ClosedForms; gathers <= 0 || warm.Stats.Searches > s.Searches-gathers {
					b.Fatalf("the gathering sweeps took a list: %d gathers and %d searches, %d searches with every list materialized", gathers, warm.Stats.Searches, s.Searches)
				}
			}
			b.ResetTimer()
			var leaves int64
			for i := 0; i < b.N; i++ {
				leaves += e.Mine().Stats.LeafCountsSkippedMaterialize
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(leaves), "ns/leaf")
		})
	}
}
