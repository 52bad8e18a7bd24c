package core

// The exec program (DESIGN.md decision 18). The plan IR is what the compiler
// emits and the goldens pin; the program is what the workers run. NewEngine
// lowers the plan once: one node per plan.Node (less the leaves a closed form
// folds into their parents, closedForm), holding a pointer to its op (its own
// copy, less one NotEqual, below a factor: factorNodes) plus
// every per-level decision that depends only on the plan and the options
// — leaf mode, operand source, the flattened set-operation chains, and which
// aux specs the level activates — so the DFS resolves none of it per
// extension. The program is read-only after lowering and shared by all
// workers; ops, nodes and aux specs travel by pointer only.

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/plan"
)

// noCopy makes `go vet`'s copylocks check reject by-value parameters,
// assignments and range copies of the types that embed it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// leafMode is how a node's candidate list is consumed.
type leafMode uint8

const (
	interior        leafMode = iota // extend every candidate, recurse
	leafCount                       // counting kernel, nothing materialized
	leafMaterialize                 // memoized leaf: count the materialized list
	leafVisit                       // List: one visitor call per candidate
)

// source is where a node's base candidate list comes from.
type source uint8

const (
	srcAdj      source = iota // the extender's (possibly hub-sliced) adjacency
	srcFrontier               // a memoized frontier, w.levels[srcIdx]
	srcAux                    // an auxiliary row of spec srcIdx; adjacency where the activation folds nothing
)

// chainOp is one chained set operation: cur ∘ adj(emb[level]), ∘ being
// difference when diff is set and intersection otherwise — or, when a mask is
// set, a whole chain at once: cur filtered by cm[x]&(need|avoid) == need
// against the worker's connectivity map (kernels.go), level and diff unused.
type chainOp struct {
	level       int
	diff        bool
	need, avoid uint8
}

func (o chainOp) masked() bool { return o.need|o.avoid != 0 }

// suspect is a NotEqual ancestor of a count-only leaf that lowering could not
// settle: emb[j] is a candidate iff, for every k, emb[at[k]] is adjacent to
// emb[ops[k].level] — pairs of levels the plan neither connects nor disconnects.
// With probe set (markLevels marked every ops level) the c-map answers with one
// byte probe per pair; otherwise, and with no pair, the leaf searches for emb[j].
type suspect struct {
	j     int
	ops   []chainOp
	at    []int
	probe bool
}

// node is the lowered form of one plan.Node.
type node struct {
	_ noCopy

	op         *plan.VertexOp
	children   []*node
	depth      int
	patternIdx int
	mode       leafMode
	local      bool // matched from local rows while its task runs locally (below)

	src    source
	srcIdx int
	res    []chainOp // residual chain on top of a frontier or aux row
	adj    []chainOp // Connected/Disconnected on top of plain adjacency
	scan   []chainOp // adj as one masked op over the c-map; nil when some level of it is unmarked

	// boundAt, if not NoLevel, is the node's only UpperBounds level, its vertex
	// drawn from the list this node starts from — the frontier it reuses, or the
	// same extender's bare adjacency — so the bounded prefix ends at its loop index.
	boundAt int

	// NotEqual of a count-only leaf, split by what the plan proves (decision 20):
	// a certain ancestor is adjacent to every source and to nothing in Disconnected,
	// so counted iff below the bound; one proven no candidate is in neither list.
	certain  []int
	suspects []suspect

	builds []int // the aux specs this level activates (auxNodes)

	// marked: while this level's vertex is fixed, the c-map holds its
	// adjacency below the least emb[b] over the levels b of markBelow.
	marked    bool
	markBelow uint32

	// Local rows (localNodes). A local node takes level lbase's candidate set (level
	// 0's is all ones) through the rows of lops; llook: the levels it names that are
	// not local. lonly: only local nodes read this mark, so a local task leaves it out.
	lonly bool
	lbase int
	lops  []chainOp
	llook uint32

	// Closed forms (closedForm): a count-only node that stands for the levels below
	// it too. Its m candidates match C(m, choose) times; or, prod[0] being A and
	// prod[1], if there, B, m·A − B times — m·A − m under prodAll, where every
	// candidate of the node is one of B's and B is not evaluated.
	choose  int
	prod    []*node
	prodAll bool

	fac *factor // set at a factor node and at every node below it (factorNodes)
}

// factor is what a node at or below a factor node carries: at is the factor node,
// whose level is unbound while its subtree runs. Below it, in is at's candidate
// set as one masked c-map op (nil: search at's list), and a leaf has minus, the
// count-only node of its candidates that are at's too (both).
type factor struct {
	at    *node
	in    []chainOp
	minus *node
}

// auxNode is the lowered form of one plan.AuxSpec that auxNodes kept: its fold chain.
type auxNode struct {
	_ noCopy

	spec *plan.AuxSpec
	ops  []chainOp
	scan []chainOp // ops as one masked op, like node.scan
}

// program is a lowered plan.
type program struct {
	pl     *plan.Plan
	root   *node
	aux    []auxNode // by spec index, a spec auxNodes dropped left zero; nil when it kept none
	marks  bool      // some node is marked: workers carry a c-map
	closed bool      // closedForm applies: counting under KernelAuto

	// Local rows: some node is local, and a task whose universe fits lcap runs
	// locally. By the bounds of every local node and of every level one reads, the
	// universe is adj(v0) below v0 (lbelow), a row read only below its own vertex (ltri).
	local, lbelow, ltri bool
	lcap                int
}

// lower builds the exec program of pl under o for graph g; listing selects
// the visitor leaf mode (List) over the counting ones (Mine).
func lower(g graph.Store, pl *plan.Plan, o Options, listing bool) *program {
	p := &program{pl: pl, closed: o.Kernel == KernelAuto && !listing}
	p.root = p.lowerNode(pl.Root, nil, listing)
	if o.Kernel == KernelAuto {
		p.localNodes()
		if p.closed {
			p.factorNodes(p.root, nil)
		}
		p.auxNodes(max(g.AvgDegree(), 1))
		p.markLevels()
	}
	return p
}

// lowerNode lowers pn below its ancestors path (root first).
func (p *program) lowerNode(pn *plan.Node, path []*node, listing bool) *node {
	op := &pn.Op
	n := &node{
		op:         op,
		depth:      len(path),
		patternIdx: pn.PatternIdx,
		adj:        flatten(op.Connected, op.Disconnected),
		boundAt:    plan.NoLevel,
	}
	if op.FrontierBase != plan.NoLevel {
		n.src, n.srcIdx = srcFrontier, op.FrontierBase
		n.res = flatten(op.IntersectWith, op.DifferenceWith)
	}
	if bs := op.UpperBounds; len(bs) == 1 {
		l := path[bs[0]]
		frontier := n.src == srcFrontier && n.srcIdx == bs[0]
		row := n.src != srcFrontier && l.src == srcAdj && l.op.Extender == op.Extender && len(l.adj)+len(l.op.NotEqual) == 0
		if frontier || row {
			n.boundAt = bs[0]
		}
	}
	switch {
	case !pn.IsLeaf():
		n.children = make([]*node, len(pn.Children))
		for i, c := range pn.Children {
			n.children[i] = p.lowerNode(c, append(path, n), listing)
		}
		if p.closed && n.depth >= 2 && len(n.children) == 1 {
			p.closedForm(n, path)
		}
	case listing:
		n.mode = leafVisit
	case op.MemoizeFrontier:
		n.mode = leafMaterialize
	default:
		// Nothing below a leaf reads its candidate list, so its size comes
		// from a counting kernel instead of a materialized w.levels[depth].
		n.mode = leafCount
		n.splitNotEqual(path, p.pl.RequiresDAG)
	}
	return n
}

// closedForm counts instead of enumerating (DESIGN.md decision 22). n is an
// interior node at depth ≥ 2 — a hub slice cuts the list of depth 1 — whose only
// child c is a count-only leaf; it becomes one itself where the sum of c's counts
// over n's m candidates depends on counts alone. Prefix: c's candidates are n's
// list below n's vertex (c is bounded by n's loop position over n's frontier or
// the same bare row, with no chain and no NotEqual), so c counts pos and the sum
// is C(m, 2) — C(m, t+1) over a c that stands for t levels. Product: c names n's
// level in NotEqual only, so its candidates S are the same under every vertex v
// of n and Σ |S| − [v ∈ S] = m·A − B: A is c one level up without that NotEqual;
// B, there only if c had it, the candidates of n that pass c's constraints too,
// from the deepest source's row so that markLevels can serve its chain — and m
// itself where c's constraints add nothing to n's. A and B are count-only nodes
// at n's depth.
func (p *program) closedForm(n *node, path []*node) {
	c, d := n.children[0], n.depth
	if c.mode != leafCount || c.prod != nil {
		return
	}
	op := c.op
	prefix := c.boundAt == d && len(op.NotEqual)+len(c.res) == 0 && (c.src == srcFrontier || len(c.adj) == 0)
	if !prefix && (names(op, d) || c.choose > 1) {
		return
	}
	n.mode, n.patternIdx, n.children = leafCount, c.patternIdx, nil
	n.splitNotEqual(path, p.pl.RequiresDAG)
	if prefix {
		n.choose = max(c.choose, 1) + 1
		return
	}
	a := *op // a leaf memoizes nothing
	a.Level, a.NotEqual = d, union(d, nil, op.NotEqual...)
	n.prod = []*node{p.lowerNode(&plan.Node{Op: a}, path, false)}
	if !slices.Contains(op.NotEqual, d) {
		return
	}
	minus := p.both(n, c, path)
	b := minus.op
	n.prodAll = len(b.Connected) == len(n.op.Connected) && len(b.Disconnected) == len(n.op.Disconnected) &&
		len(b.UpperBounds) == len(n.op.UpperBounds) && len(minus.certain)+len(minus.suspects) == len(n.certain)+len(n.suspects)
	if !n.prodAll {
		n.prod = append(n.prod, minus)
	}
}

// names: op reads level d's vertex or list — anything but NotEqual.
func names(op *plan.VertexOp, d int) bool {
	for _, ls := range [][]int{{op.Extender, op.FrontierBase}, op.Connected, op.Disconnected, op.UpperBounds, op.IntersectWith, op.DifferenceWith} {
		if slices.Contains(ls, d) {
			return true
		}
	}
	return false
}

// union is a and what it lacks of b, level d left out.
func union(d int, a []int, b ...int) []int {
	a = slices.Clone(a)
	for _, l := range b {
		if l != d && !slices.Contains(a, l) {
			a = append(a, l)
		}
	}
	return a
}

// both lowers the count-only leaf, at depth len(path), of the candidates of c that
// are candidates of n too — c below n, naming n's level in NotEqual only, and that
// left out: the union of both ops, from the deepest source's row so that
// markLevels can serve its chain. It is B of a product and of a factor.
func (p *program) both(n, c *node, path []*node) *node {
	d := n.depth
	srcs := union(d, append([]int{n.op.Extender}, n.op.Connected...), append([]int{c.op.Extender}, c.op.Connected...)...)
	b := plan.VertexOp{
		Level:        len(path),
		Extender:     slices.Max(srcs),
		Disconnected: union(d, n.op.Disconnected, c.op.Disconnected...),
		UpperBounds:  union(d, n.op.UpperBounds, c.op.UpperBounds...),
		NotEqual:     union(d, n.op.NotEqual, c.op.NotEqual...),
		FrontierBase: plan.NoLevel,
		AuxBase:      plan.NoLevel,
	}
	b.Connected = slices.DeleteFunc(srcs, func(l int) bool { return l == b.Extender })
	return p.lowerNode(&plan.Node{Op: b}, path, false)
}

// factorNodes counts an independent level once (DESIGN.md decision 23), under
// closedForm's gate. An interior node n at depth d ≥ 2 is a factor when every node
// below it names d in NotEqual and nowhere else (independent): n's candidates C are
// then one set for the whole subtree, a match that has fixed v_j at the levels
// below d can take |C| − Σ [v_j ∈ C] vertices at d, and walk carries that weight
// down one descent with emb[d] unbound instead of descending once per vertex. The
// nodes below get their op without the NotEqual, a leaf its B (both) — closedForm's
// product is this rule at depth K−2, counted instead of listed. The first factor
// on a path is the only one; local rows and nested closed forms stay enumerated.
func (p *program) factorNodes(n *node, path []*node) {
	switch f := n.fac; {
	case f != nil: // below the factor node f.at
		op := *n.op
		op.NotEqual = union(f.at.depth, nil, op.NotEqual...)
		n.op = &op
		if n.mode == leafCount {
			n.certain, n.suspects = nil, nil
			n.splitNotEqual(path, p.pl.RequiresDAG)
			f.minus = p.both(f.at, n, path)
		}
	case n.mode == interior && n.depth >= 2 && !n.local && independent(n.children, n.depth):
		n.fac = &factor{at: n}
	}
	for _, c := range n.children {
		if n.fac != nil {
			c.fac = &factor{at: n.fac.at}
		}
		p.factorNodes(c, append(path, n))
	}
}

// independent: no node of cs or below reads level d, each excludes it, and each is
// one the weighted walk knows: interior or a plain count-only leaf, off the local rows.
func independent(cs []*node, d int) bool {
	for _, c := range cs {
		if names(c.op, d) || !slices.Contains(c.op.NotEqual, d) ||
			c.local || c.mode == leafMaterialize || c.choose > 1 || c.prod != nil || !independent(c.children, d) {
			return false
		}
	}
	return true
}

// auxNodes hands the plan's aux directives (DESIGN.md decision 14) to the consumers
// the passes above left in the tree — the last structural pass, so that a row never
// stands in the way of a count. A consumer folded into a closed form is gone; one
// below a factor takes no row activated at or under the factor's level, which is
// unbound there, and where it takes one that level is no loop of the gap. With
// d = avg degree a kept spec is then looked up ≈ uses × d^gap times per activation,
// and anything below 2 cannot amortize even one row copy: such a spec is dropped,
// its consumers and the levels that would have built it staying as lowerNode made them.
func (p *program) auxNodes(d float64) {
	specs := p.pl.AuxSpecs
	var path []*node
	var each func(n *node, f func(n *node, i int)) // f(n, i) for every consumer n of spec i still standing, path its ancestors
	each = func(n *node, f func(*node, int)) {
		if i := n.op.AuxBase; i >= 0 && i < len(specs) && (n.fac == nil || specs[i].Level < n.fac.at.depth) {
			f(n, i)
		}
		path = append(path, n)
		for _, c := range n.children {
			each(c, f)
		}
		path = path[:n.depth]
	}
	reuse, cut := make([]float64, len(specs)), make([]int, len(specs)) // reuse: a spec's uses, then its expected lookups
	each(p.root, func(n *node, i int) {
		reuse[i]++
		if n.fac != nil && n.fac.at != n {
			cut[i] = 1
		}
	})
	for i := range specs {
		for k := cut[i]; k < specs[i].Gap; k++ {
			reuse[i] *= d
		}
		if reuse[i] >= 2 {
			if p.aux == nil {
				p.aux = make([]auxNode, len(specs))
			}
			p.aux[i].spec, p.aux[i].ops = &specs[i], flatten(specs[i].Intersect, specs[i].Difference)
		}
	}
	each(p.root, func(n *node, i int) {
		if reuse[i] < 2 {
			return
		}
		n.src, n.srcIdx, n.res = srcAux, i, flatten(n.op.AuxIntersect, n.op.AuxDifference)
		if b := path[specs[i].Level]; !slices.Contains(b.builds, i) {
			b.builds = append(b.builds, i)
		}
	})
}

// splitNotEqual sorts the leaf's NotEqual ancestors into certain, suspect and
// (dropped) never-a-candidate. Levels a < b are proven adjacent when a is the
// extender or in Connected of the op at depth b, apart when it is in its
// Disconnected or a == b (no self loops) — on symmetric adjacency only: on a DAG
// every ancestor is searched for. So is one in NotEqual of a frontier under n's
// base: materialize cut it out of that list, so it is there to subtract only
// when resolve scans the extender's row instead.
func (n *node) splitNotEqual(path []*node, dag bool) {
	proven := func(a, b int) int { // +1 adjacent, -1 apart, 0 unknown
		op := path[max(a, b)].op
		switch a = min(a, b); {
		case dag:
		case a == op.Level || slices.Contains(op.Disconnected, a):
			return -1
		case a == op.Extender || slices.Contains(op.Connected, a):
			return 1
		}
		return 0
	}
next:
	for _, j := range n.op.NotEqual {
		s, search := suspect{j: j}, dag
		for f := n; f.src == srcFrontier && !search; {
			f = path[f.srcIdx]
			search = slices.Contains(f.op.NotEqual, j)
		}
		for _, l := range append([]int{n.op.Extender}, n.op.Connected...) {
			switch proven(j, l) {
			case -1:
				continue next
			case 0:
				s.ops, s.at = append(s.ops, chainOp{level: min(j, l)}), append(s.at, max(j, l))
			}
		}
		for _, l := range n.op.Disconnected {
			switch proven(j, l) {
			case 1:
				continue next
			case 0:
				search = true
			}
		}
		switch {
		case search:
			n.suspects = append(n.suspects, suspect{j: j})
		case s.ops != nil:
			n.suspects = append(n.suspects, s)
		default:
			n.certain = append(n.certain, j)
		}
	}
}

// cmLevels: the c-map's byte (the paper's 8-bit value field) has a bit for this many levels.
const cmLevels = 8

// markLevels makes the static c-map decisions (DESIGN.md decision 19). A chain
// is read where it is evaluated: a node's adj chain at the node, an aux spec's
// fold chain at each consumer, a suspect's pairs at its leaf. Level L is wanted
// when a chain read at depth ≥ L+2 checks connectivity to it — only then is one
// insertion probed from more than one extension. A chain whose levels are all
// wanted gets its masked form and marks the levels it reads. A marked level
// inserts only the prefix every such chain can probe: below emb[b] for each
// b ≤ L in the transitive closure of the chain's bounds along the root path
// (the candidate stays below emb[b], itself matched below path[b]'s bounds),
// intersected over the chains — the whole row once a suspect (no bounds) reads it.
func (p *program) markLevels() {
	var path []*node
	var reader *node // the node visit is reading chains at
	// visit calls read, with path holding n's ancestors, for every chain
	// evaluated at n: the levels it checks, the levels bounding its
	// candidates, and where its masked form goes (nil: a suspect's is not
	// needed). read reports whether it marked the chain's levels.
	var visit func(n *node, read func(ops []chainOp, bounds []int, scan *[]chainOp) bool)
	visit = func(n *node, read func([]chainOp, []int, *[]chainOp) bool) {
		reader = n
		if n.chained() {
			read(n.adj, n.op.UpperBounds, &n.scan)
		}
		if n.src == srcAux {
			a := &p.aux[n.srcIdx]
			var bounds []int
			if a.spec.RowBound != plan.NoLevel {
				bounds = []int{a.spec.RowBound}
			}
			read(a.ops, bounds, &a.scan)
		}
		for i := range n.suspects {
			if s := &n.suspects[i]; s.ops != nil {
				s.probe = read(s.ops, nil, nil)
			}
		}
		switch f := n.fac; {
		case f == nil || f.at == n:
		case f.minus != nil: // a count-only node at n's own depth, like prod
			visit(f.minus, read)
		default: // is a candidate of n one of the factor's?
			read(append([]chainOp{{level: f.at.op.Extender}}, f.at.adj...), f.at.op.UpperBounds, &f.in)
		}
		for _, t := range n.prod { // count-only nodes at n's own depth
			visit(t, read)
		}
		path = append(path, n)
		for _, c := range n.children {
			visit(c, read)
		}
		path = path[:len(path)-1]
	}
	want := map[*node]bool{}
	visit(p.root, func(ops []chainOp, _ []int, _ *[]chainOp) bool {
		for _, o := range ops {
			if o.level+2 <= len(path) && o.level < cmLevels {
				want[path[o.level]] = true
			}
		}
		return false
	})
	visit(p.root, func(ops []chainOp, bounds []int, scan *[]chainOp) bool {
		var m chainOp
		for _, o := range ops {
			if !want[path[o.level]] {
				return false
			}
			if o.diff {
				m.avoid |= 1 << o.level
			} else {
				m.need |= 1 << o.level
			}
		}
		below := boundClosure(path, bounds)
		for _, o := range ops {
			l := path[o.level]
			if !l.marked {
				l.marked, l.lonly, l.markBelow = true, true, 1<<(l.depth+1)-1
			}
			l.markBelow &= below
			l.lonly = l.lonly && reader.local
		}
		if scan != nil {
			*scan = []chainOp{m}
		}
		p.marks = true
		return true
	})
}

// boundClosure is the set of levels whose vertices bound, transitively along
// the root path, a candidate that stays below those of bounds.
func boundClosure(path []*node, bounds []int) (below uint32) {
	for todo := append([]int(nil), bounds...); len(todo) > 0; todo = todo[1:] {
		if b := todo[0]; below>>b&1 == 0 {
			below |= 1 << b
			todo = append(todo, path[b].op.UpperBounds...)
		}
	}
	return below
}

// chained: n evaluates its adj chain — a frontier consumer with no residual
// evaluates no chain at all.
func (n *node) chained() bool {
	return len(n.adj) > 0 && (n.src != srcFrontier || len(n.res) > 0)
}

// localCap is the largest universe a task runs locally (rows are d·⌈d/64⌉
// words: 128 KB), localWords one row's length there.
const localCap, localWords = 1024, localCap / 64

// localNodes makes the static local-row decisions (DESIGN.md decision 21).
// Level t ≥ 1 is in the universe when emb[t] ∈ adj(emb[0]) by the plan: level 0
// is its extender or in its Connected. A node at depth ≥ 2 is capable when it and
// every level ≥ 1 its op names are in the universe — its candidates are then an
// AND / AND-NOT of bit rows under a prefix mask — and a trigger when, at depth
// ≥ 3, it evaluates a chain: only there is a row built once and read from more
// than one extension. A node is local iff a trigger or a capable ancestor of one.
func (p *program) localNodes() {
	var path []*node
	inUniverse := func(l int) bool {
		return l == 0 || path[l].op.Extender == 0 || slices.Contains(path[l].op.Connected, 0)
	}
	var visit func(n *node) bool // reports a trigger at or below n
	visit = func(n *node) bool {
		path = append(path, n)
		n.local = n.depth >= 2 // capable, while the subtree is visited
		for _, ls := range [][]int{{n.depth, n.op.Extender}, n.op.Connected, n.op.Disconnected, n.op.UpperBounds} {
			for _, l := range ls {
				n.local = n.local && inUniverse(l)
			}
		}
		trigger := n.local && n.depth >= 3 && n.chained()
		for _, c := range n.children {
			trigger = visit(c) || trigger
		}
		path = path[:n.depth]
		n.local = n.local && trigger
		if n.local { // every capable ancestor of n, and no other, ends up local too
			below := boundClosure(path, n.op.UpperBounds)
			p.lbelow = p.lbelow && below&1 != 0
			n.lops = append([]chainOp{{level: n.op.Extender}}, n.adj...)
			if n.src == srcFrontier && path[n.srcIdx].local {
				n.lbase, n.lops = n.srcIdx, n.res
			}
			n.lops = slices.DeleteFunc(slices.Clone(n.lops), func(o chainOp) bool { return o.level == 0 })
			for _, o := range append(flatten(n.op.UpperBounds, nil), n.lops...) { // every level n names
				if l := path[o.level]; o.level > 0 && !l.local {
					n.llook |= 1 << o.level
					p.lbelow = p.lbelow && boundClosure(path, l.op.UpperBounds)&1 != 0
				}
			}
			for _, o := range n.lops {
				p.ltri = p.ltri && below>>o.level&1 != 0
			}
		}
		for _, t := range n.prod { // count-only nodes at n's own depth
			trigger = visit(t) || trigger
		}
		return trigger
	}
	p.lcap, p.lbelow, p.ltri = localCap, true, true
	p.local = visit(p.root)
}

func flatten(intersect, difference []int) []chainOp {
	ops := make([]chainOp, 0, len(intersect)+len(difference))
	for _, j := range intersect {
		ops = append(ops, chainOp{level: j})
	}
	for _, j := range difference {
		ops = append(ops, chainOp{level: j, diff: true})
	}
	return ops
}
