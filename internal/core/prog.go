package core

// The exec program (DESIGN.md decision 18). The plan IR is what the compiler
// emits and the goldens pin; the program is what the workers run. NewEngine
// lowers the plan once: one node per plan.Node, holding a pointer to its op plus
// every per-level decision that depends only on the plan and the options — leaf
// mode, operand source, the flattened set-operation chains, which aux specs the
// level activates — so the DFS resolves none of it per extension. Lowering is a
// pipeline: lower states the order of the passes, each pass's comment what it
// needs of the tree and what it leaves, each field's the one pass that writes it.
// The program is read-only after lowering and shared by all workers; ops, nodes
// and aux specs travel by pointer only.

import (
	"math/bits"
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
	interior  leafMode = iota // extend every candidate, recurse
	leafCount                 // counting kernel, nothing materialized
	leafVisit                 // List: one visitor call per candidate
)

// source is where a node's base candidate list comes from.
type source uint8

const (
	srcAdj      source = iota // the extender's (possibly hub-sliced) adjacency
	srcFrontier               // a memoized frontier, w.levels[srcIdx]
	srcAux                    // an auxiliary row of spec srcIdx; adjacency where the activation folds nothing
)

// sweepKind is how walk counts an interior node's only child over the node's list
// in one loop (sweepLeaves): the child's kernel per candidate v.
type sweepKind uint8

const (
	noSweep      sweepKind = iota
	sweepScan              // an unbounded c-map masked scan of adj(v)
	sweepLocal             // the AND of the node's local set with row(v)
	sweepPair              // over the node's set and, per bit, its only child's, which sweeps locally: one loop
	sweepWeighed           // below a factor: the leaf's and its B's masked scans of adj(v), in one pass
	sweepCount             // count and, for a closed form, closed: the walk's calls, an operand once per list
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
// With probe set the c-map answers with one byte probe per pair; otherwise, and
// with no pair, the leaf searches for emb[j].
type suspect struct {
	j     int
	ops   []chainOp
	at    []int
	probe bool // markLevels: it marked every level of ops
}

// node is the lowered form of one plan.Node. build writes the fields down to
// boundAt; a comment that names a pass names the only other writer of the field.
type node struct {
	_ noCopy

	op         *plan.VertexOp // below a factor its own copy, less one NotEqual (factorNodes)
	children   []*node        // nil once the node stands for the levels below it (closedForms)
	depth      int
	patternIdx int      // the folded leaf's (closedForms)
	mode       leafMode // leafCount once a leaf is folded into the node (closedForms)

	src    source // srcAux, with srcIdx and res, at a consumer of a kept spec (auxNodes)
	srcIdx int
	res    []chainOp // residual chain on top of a frontier or aux row
	adj    []chainOp // Connected/Disconnected on top of plain adjacency

	// boundAt, if not NoLevel, is the node's only UpperBounds level, its vertex
	// drawn from the list this node starts from — the frontier it reuses, or the
	// same extender's bare adjacency — so the bounded prefix ends at its loop index.
	boundAt int

	proof  proof    // splitNotEqual, for the pass that makes the node count-only or changes its NotEqual
	closed closed   // closedForms
	local  localUse // localNodes
	fac    *factor  // factorNodes: set at a factor node and at every node below it
	far    *node    // farSides: the far corner of the twin levels that started from this node's list
	twins  int      // farSides: on a far corner, the levels it stands for: its parent's and the ones cut below it
	builds []int    // auxNodes: the aux specs this level activates
	cmap   cmapUse  // markLevels

	sweep sweepKind // sweepLeaves: on an interior node, how walk counts its only child
	once  bool      // sweepLeaves: an operand of a swept closed form that names the swept level nowhere
	hoist *node     // hoistSweeps: on a swept node, the ancestor whose row its list is cut from
	arc   bool      // arcCounts: its count — a hoisted weighed node's, its F walk's — is read from the arc index
	half  int64     // halfSums: 2 where its only child's counts over its list are the sum of a's index slots over 2
}

// proof is NotEqual of a count-only node, split by what the plan proves (decision
// 20): a certain ancestor is adjacent to every source and to nothing in
// Disconnected, so counted iff below the bound; one proven no candidate is in
// neither list.
type proof struct {
	certain  []int
	suspects []suspect
}

// closed is a closed form: a count-only node that stands for the levels below it
// too. Its m candidates match C(m, choose) times; or, prod[0] being A and prod[1],
// if there, B, m·A − B times — m·A − m under prodAll, where every candidate of the
// node is one of B's and B is not evaluated.
type closed struct {
	choose  int
	prod    []*node
	prodAll bool
}

// localUse is a node matched from local rows while its task runs locally (on). It
// takes level base's candidate set (level 0's is all ones) through the rows of
// ops; look: the levels it names that are not local.
type localUse struct {
	on   bool
	base int
	ops  []chainOp
	look uint32
}

// cmapUse is what a node asks of the c-map. scan: adj as one masked op, nil when
// some level of it is unmarked. marked: while this level's vertex is fixed, the
// c-map holds its adjacency below the least emb[b] over the levels b of markBelow
// — lonly: read by local nodes only, so a local task leaves the mark out.
type cmapUse struct {
	scan      []chainOp
	marked    bool
	markBelow uint32
	lonly     bool
}

// factor is what a node at or below a factor node carries: at is the factor node,
// whose level is unbound while its subtree runs. Below it, in is at's candidate
// set as one masked c-map op (nil: search at's list), and a leaf has minus, the
// count-only node of its candidates that are at's too (both).
type factor struct {
	at    *node     // factorNodes
	in    []chainOp // markLevels
	minus *node     // factorNodes
}

// auxNode is the lowered form of one plan.AuxSpec that auxNodes kept: its fold chain.
type auxNode struct {
	_ noCopy

	spec *plan.AuxSpec // auxNodes
	ops  []chainOp     // auxNodes
	scan []chainOp     // markLevels: ops as one masked op, like cmapUse.scan
}

// program is a lowered plan.
type program struct {
	pl     *plan.Plan
	root   *node
	closed bool      // lower: closedForms and factorNodes apply — counting under KernelAuto
	aux    []auxNode // auxNodes: by spec index, a dropped spec left zero; nil when it kept none
	marks  bool      // markLevels: some node is marked, workers carry a c-map
	arcs   bool      // arcCounts, halfSums: some node reads the heap graph's arc index

	// Local rows (localNodes): some node is local, and a task whose universe fits
	// lcap runs locally. By the bounds of every local node and of every level one reads,
	// the universe is adj(v0) below v0 (lbelow), a row read only below its own vertex (ltri).
	local, lbelow, ltri bool
	lcap                int
}

// lower builds the exec program of pl under o for graph g; listing selects the
// visitor leaf mode (List) over the counting one (Mine). It alone names the passes
// and their order: all but build are KernelAuto's (a merge-only program is the
// plan's tree and its proofs), the three that count instead of extending run for
// counting only. closedForms goes first because it removes nodes, factorNodes after
// localNodes because a local node is no factor, farSides after both because local
// twins and twins below a factor stay as they are, auxNodes after all three because
// a row goes to a consumer still standing, markLevels after every chain is final
// because it reads them all, sweepLeaves after it because it reads what each kernel
// got, hoistSweeps after that because it reads the sweep kinds, and arcCounts and
// halfSums last, for symmetric plans on a heap graph only, because they read the marks,
// the hoists and the sweep kinds.
func lower(g graph.Store, pl *plan.Plan, o Options, listing bool) *program {
	p := &program{pl: pl, closed: o.Kernel == KernelAuto && !listing}
	p.root = p.build(pl.Root, nil, listing)
	if o.Kernel == KernelAuto {
		if p.closed {
			p.closedForms(p.root, nil)
		}
		p.localNodes()
		if p.closed {
			p.factorNodes(p.root, nil)
			p.farSides()
		}
		p.auxNodes(max(g.AvgDegree(), 1))
		p.markLevels()
		p.sweepLeaves()
		p.hoistSweeps()
		if _, heap := g.(*graph.Graph); heap && p.closed && !pl.RequiresDAG {
			p.arcCounts()
			p.halfSums()
		}
	}
	return p
}

// each calls f for every node a worker can evaluate, parents first, path holding
// the node's ancestors (path[l] is level l): the tree through children, and the
// count-only side nodes — a closed form's A and B, a weighted leaf's B — under the
// path of the node they stand beside, whose depth is theirs, a far corner under
// that of the children it stands for. f does not keep path; it may cut children
// from the node it is handed.
func (p *program) each(f func(n *node, path []*node)) {
	var path []*node
	var visit func(n *node)
	visit = func(n *node) {
		f(n, path)
		for _, t := range n.closed.prod {
			visit(t)
		}
		if n.fac != nil && n.fac.minus != nil {
			visit(n.fac.minus)
		}
		path = append(path, n)
		if n.far != nil {
			visit(n.far)
		}
		for _, c := range n.children {
			visit(c)
		}
		path = path[:n.depth]
	}
	visit(p.root)
}

// build lowers pn below its ancestors path (root first): the plan's tree node for
// node, sources and chains flattened, a leaf count-only with its proof or, listing,
// visited. It reads only path and calls no pass; passes make side nodes with it.
func (p *program) build(pn *plan.Node, path []*node, listing bool) *node {
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
			n.children[i] = p.build(c, append(path, n), listing)
		}
	case listing:
		n.mode = leafVisit
	default:
		// Nothing below a leaf reads its candidate list (the compiler memoizes
		// interior frontiers only), so its size comes from a counting kernel
		// instead of a materialized w.levels[depth].
		n.mode = leafCount
		n.splitNotEqual(path, p.pl.RequiresDAG)
	}
	return n
}

// closedForms counts instead of enumerating (DESIGN.md decision 22). It needs
// build's tree, visits it children first, and leaves it smaller, with side nodes.
// n is an interior node at depth ≥ 1 whose only child c is a count-only leaf; it
// becomes one itself where the sum of c's counts over n's m candidates depends on
// counts alone. Prefix: c's candidates are n's list below n's vertex (prefix), so c
// counts pos and the sum is C(m, 2) — C(m, t+1) over a c that stands for t levels,
// C(hi, ·) − C(lo, ·) over the [lo, hi) of depth 1's list a hub slice is. Product,
// at depth ≥ 2, where a list is whole:
// c names n's level in NotEqual only, so its candidates S are the same under every
// vertex v of n and Σ |S| − [v ∈ S] = m·A − B: A is c one level up without that
// NotEqual, off the aux rows; B, there only if c had it, the candidates of n that
// pass c's constraints too (both) — and m itself where c's constraints add nothing
// to n's, decided here so that no later pass sees a B the engine never evaluates.
func (p *program) closedForms(n *node, path []*node) {
	for _, c := range n.children {
		p.closedForms(c, append(path, n))
	}
	if n.depth < 1 || len(n.children) != 1 {
		return
	}
	c, d := n.children[0], n.depth
	if c.mode != leafCount || c.closed.prod != nil {
		return
	}
	op := c.op
	prefix := c.prefix(d)
	if !prefix && (d < 2 || names(op, d) || c.closed.choose > 1) {
		return
	}
	n.mode, n.patternIdx, n.children = leafCount, c.patternIdx, nil
	n.splitNotEqual(path, p.pl.RequiresDAG)
	if prefix {
		n.closed.choose = max(c.closed.choose, 1) + 1
		return
	}
	a := *op
	a.Level, a.NotEqual, a.AuxBase = d, union(d, nil, op.NotEqual...), plan.NoLevel
	n.closed.prod = []*node{p.build(&plan.Node{Op: a}, path, false)}
	if !slices.Contains(op.NotEqual, d) {
		return
	}
	minus := p.both(n, c, path)
	b := minus.op
	n.closed.prodAll = len(b.Connected) == len(n.op.Connected) && len(b.Disconnected) == len(n.op.Disconnected) &&
		len(b.UpperBounds) == len(n.op.UpperBounds) && len(minus.proof.certain)+len(minus.proof.suspects) == len(n.proof.certain)+len(n.proof.suspects)
	if !n.closed.prodAll {
		n.closed.prod = append(n.closed.prod, minus)
	}
}

// prefix: c's candidates are level d's list below level d's vertex — c is bounded
// by that level's loop position over its frontier or the same bare row, with no
// chain of its own and no NotEqual.
func (c *node) prefix(d int) bool {
	return c.boundAt == d && len(c.op.NotEqual)+len(c.res) == 0 && (c.src == srcFrontier || len(c.adj) == 0)
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

// both builds the count-only leaf, at depth len(path), of the candidates of c that
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
	return p.build(&plan.Node{Op: b}, path, false)
}

// factorNodes counts an independent level once (DESIGN.md decision 23). It needs
// the closed forms and the local nodes decided, visits the tree parents first, and
// leaves fac, the ops below a factor and their leaves' side nodes. An interior
// node n at depth d ≥ 2 is a factor when every node below it names d in NotEqual
// and nowhere else (independent): n's candidates C are then one set for the whole
// subtree, a match that has fixed v_j at the levels below d can take
// |C| − Σ [v_j ∈ C] vertices at d, and walk carries that weight down one descent
// with emb[d] unbound instead of descending once per vertex. The nodes below get
// their op without the NotEqual, a leaf its proof again and its B (both) — a
// product is this rule at depth K−2, counted instead of listed. The first factor
// on a path is the only one; local rows and nested closed forms stay enumerated.
func (p *program) factorNodes(n *node, path []*node) {
	switch f := n.fac; {
	case f != nil: // below the factor node f.at
		op := *n.op
		op.NotEqual = union(f.at.depth, nil, op.NotEqual...)
		n.op = &op
		if n.mode == leafCount {
			n.splitNotEqual(path, p.pl.RequiresDAG)
			f.minus = p.both(f.at, n, path)
		}
	case n.mode == interior && n.depth >= 2 && !n.local.on && independent(n.children, n.depth):
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
			c.local.on || c.closed.choose > 1 || c.closed.prod != nil || !independent(c.children, d) {
			return false
		}
	}
	return true
}

// farSides counts twin levels from their far corner (DESIGN.md decision 24). It
// needs the closed forms, the local nodes and the factors decided, visits the tree
// parents first, and leaves far corners and a tree without the levels they stand
// for. A node a at depth d ≥ 1 has twins where a chain of only children hangs off
// it, each the prefix of the list above it — t levels with a's, every t-subset of
// a's list L once — and ends in a plain count-only leaf c whose sources are the
// twins and which names none anywhere else: summed over the subsets, c's counts are
// Σ_{x ∈ X} C(|adj(x) ∩ L|, t), X being what the rest of c's op — bounds and
// NotEqual, of levels above d — leaves of V. The chain goes; a keeps the far
// corner, that rest as a count-only node one level down — made here, not by build:
// there is no proof to split, its NotEqual comes out of the sum —, which walk
// sweeps once per L (engine.go, farSide). A c with a source or a Disconnected
// above d — a chain on the corner — stays as it is: no connected pattern of up to
// seven vertices has one off the local rows. Local twins and twins at or below a
// factor stay enumerated.
func (p *program) farSides() {
	p.each(func(a *node, path []*node) {
		d := a.depth
		if d < 1 || d > cmLevels || a.mode != interior || a.fac != nil {
			return
		}
		for i, c := range a.children {
			t := 1
			for ; c.mode == interior && len(c.children) == 1 && c.prefix(d+t-1) && !c.local.on; t++ {
				c = c.children[0]
			}
			if t < 2 || c.mode != leafCount || c.local.on || c.closed.choose > 1 || c.closed.prod != nil {
				continue
			}
			twin := func(l int) bool { return l >= d }
			srcs := append([]int{c.op.Extender}, c.op.Connected...)
			if len(srcs) != t || slices.ContainsFunc(srcs, func(l int) bool { return !twin(l) }) || len(c.op.Disconnected) > 0 ||
				slices.ContainsFunc(slices.Concat(c.op.UpperBounds, c.op.NotEqual), twin) {
				continue
			}
			op := plan.VertexOp{Level: d + 1, Extender: d, UpperBounds: c.op.UpperBounds, NotEqual: c.op.NotEqual, FrontierBase: plan.NoLevel, AuxBase: plan.NoLevel}
			a.far = &node{op: &op, depth: d + 1, patternIdx: c.patternIdx, mode: leafCount, boundAt: plan.NoLevel, twins: t}
			a.children = slices.Delete(a.children, i, i+1)
			return
		}
	})
}

// auxNodes hands the plan's aux directives (DESIGN.md decision 14) to the consumers
// the passes above left standing — the last structural pass, so that a row never
// stands in the way of a count. It needs the tree final and every factor set, and
// leaves p.aux, builds and the consumers' sources. A consumer folded into a closed
// form is gone (no side node is one: AuxBase is NoLevel there); one below a factor
// takes no row activated at or under the factor's level, which is unbound there,
// and where it takes one that level is no loop of the gap. With d = avg degree a
// kept spec is then looked up ≈ uses × d^gap times per activation, and anything
// below 2 cannot amortize even one row copy: such a spec is dropped, its consumers
// and the levels that would have built it staying as build made them.
func (p *program) auxNodes(d float64) {
	specs := p.pl.AuxSpecs
	uses := func(n *node) (int, bool) { // the spec n consumes, if n still may
		i := n.op.AuxBase
		return i, i >= 0 && i < len(specs) && (n.fac == nil || specs[i].Level < n.fac.at.depth)
	}
	reuse, cut := make([]float64, len(specs)), make([]int, len(specs)) // reuse: a spec's uses, then its expected lookups
	p.each(func(n *node, _ []*node) {
		if i, ok := uses(n); ok {
			reuse[i]++
			if n.fac != nil && n.fac.at != n {
				cut[i] = 1
			}
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
	p.each(func(n *node, path []*node) {
		i, ok := uses(n)
		if !ok || reuse[i] < 2 {
			return
		}
		n.src, n.srcIdx, n.res = srcAux, i, flatten(n.op.AuxIntersect, n.op.AuxDifference)
		if b := path[specs[i].Level]; !slices.Contains(b.builds, i) {
			b.builds = append(b.builds, i)
		}
	})
}

// splitNotEqual writes n's proof, for whichever pass makes n count-only or changes
// its NotEqual: it sorts the ancestors there into certain, suspect and (dropped)
// never-a-candidate. Levels a < b are proven adjacent when a is the
// extender or in Connected of the op at depth b, apart when it is in its
// Disconnected or a == b (no self loops) — on symmetric adjacency only: on a DAG
// every ancestor is searched for. So is one in NotEqual of a frontier under n's
// base: materialize cut it out of that list, so it is there to subtract only
// when resolve scans the extender's row instead.
func (n *node) splitNotEqual(path []*node, dag bool) {
	n.proof = proof{}
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
		switch q := &n.proof; {
		case search:
			q.suspects = append(q.suspects, suspect{j: j})
		case s.ops != nil:
			q.suspects = append(q.suspects, s)
		default:
			q.certain = append(q.certain, j)
		}
	}
}

// cmLevels: the c-map's byte (the paper's 8-bit value field) has a bit for this many levels.
const cmLevels = 8

// markLevels makes the static c-map decisions (DESIGN.md decision 19). It needs
// every chain final — nodes, side nodes, aux specs, factors — and leaves cmapUse,
// auxNode.scan, factor.in, suspect.probe and p.marks.
// A chain is read where it is evaluated: a node's adj chain at the node,
// an aux spec's fold chain at each consumer, a suspect's pairs at its leaf, a
// factor's own chain at every interior node below it. Level L is wanted when a
// chain read at depth ≥ L+2 checks connectivity to it — only then is one
// insertion probed from more than one extension. A chain whose levels are all
// wanted gets its masked form and marks the levels it reads. A marked level
// inserts only the prefix every such chain can probe: below emb[b] for each
// b ≤ L in the transitive closure of the chain's bounds along the root path
// (the candidate stays below emb[b], itself matched below path[b]'s bounds),
// intersected over the chains — the whole row once a suspect (no bounds) reads it.
// Neither sweep depends on each's order: want is a set, markBelow and lonly are
// ANDs over the chains that read the level.
func (p *program) markLevels() {
	var reader *node // the node sweep is reading chains at, path its ancestors
	var path []*node
	// sweep calls read for every chain of every node: the levels it checks, the
	// levels bounding its candidates, and where its masked form goes (nil: a
	// suspect's is not needed). read reports whether it marked the chain's levels.
	sweep := func(read func(ops []chainOp, bounds []int, scan *[]chainOp) bool) {
		p.each(func(n *node, ancestors []*node) {
			reader, path = n, ancestors
			if n.chained() {
				read(n.adj, n.op.UpperBounds, &n.cmap.scan)
			}
			if n.src == srcAux {
				a := &p.aux[n.srcIdx]
				var bounds []int
				if a.spec.RowBound != plan.NoLevel {
					bounds = []int{a.spec.RowBound}
				}
				read(a.ops, bounds, &a.scan)
			}
			for i := range n.proof.suspects {
				if s := &n.proof.suspects[i]; s.ops != nil {
					s.probe = read(s.ops, nil, nil)
				}
			}
			if f := n.fac; f != nil && f.at != n && f.minus == nil { // is a candidate of n one of the factor's?
				read(append([]chainOp{{level: f.at.op.Extender}}, f.at.adj...), f.at.op.UpperBounds, &f.in)
			}
		})
	}
	want := map[*node]bool{}
	sweep(func(ops []chainOp, _ []int, _ *[]chainOp) bool {
		for _, o := range ops {
			if o.level+2 <= len(path) && o.level < cmLevels {
				want[path[o.level]] = true
			}
		}
		return false
	})
	sweep(func(ops []chainOp, bounds []int, scan *[]chainOp) bool {
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
			l := &path[o.level].cmap
			if !l.marked {
				l.marked, l.lonly, l.markBelow = true, true, 1<<(o.level+1)-1
			}
			l.markBelow &= below
			l.lonly = l.lonly && reader.local.on
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

// sweepLeaves makes a last level a loop instead of a call per candidate (DESIGN.md
// decision 25). It needs every other pass done and leaves sweep and once. An
// interior node n at depth ≥ 1 that is no factor node and has no far corner, aux
// build or mark, and whose only child c is count-only, sweeps c over n's list:
// below a factor only where c and its B are each an unbounded, suspect-free masked
// scan of the candidate's row (weighed); elsewhere that scan with no certain
// ancestor either (scan), n's local set AND the candidate's row, c local with no
// NotEqual and bounded by the candidate at most (local), and every other c, closed
// forms first, through count (engine.go, sweepCount) — where an operand of a closed
// form that names n's level nowhere is counted once per list. A local sweep's parent n
// — no far corner, build or read mark — runs both levels in one loop (pair, decision 30)
// where its list is its local set or, at depth 1, the universe, and the child's is n's AND n's row.
func (p *program) sweepLeaves() {
	p.each(func(n *node, _ []*node) {
		if n.mode != interior || n.depth < 1 || len(n.children) != 1 || n.fac != nil && n.fac.at == n || n.far != nil || n.builds != nil || n.cmap.marked {
			return
		}
		c, d := n.children[0], n.depth
		if c.mode != leafCount {
			return
		}
		scans := func(c *node) bool {
			return !c.local.on && c.src == srcAdj && c.op.Extender == d && c.cmap.scan != nil && c.proof.suspects == nil && len(c.op.UpperBounds) == 0
		}
		switch f := c.fac; {
		case f != nil:
			if scans(c) && scans(f.minus) {
				n.sweep = sweepWeighed
			}
		case c.closed.choose > 1 || c.closed.prod != nil:
			n.sweep = sweepCount
			for _, t := range append([]*node{c}, c.closed.prod...) {
				t.once = t.term(d)
			}
		case scans(c) && c.proof.certain == nil:
			n.sweep = sweepScan
		case c.local.on && n.local.on && c.andsRow(d, d):
			n.sweep = sweepLocal
		default:
			n.sweep = sweepCount
		}
	})
	p.each(func(n *node, _ []*node) {
		d, bs := n.depth, n.op.UpperBounds
		if len(n.children) == 1 && n.far == nil && n.builds == nil && (!n.cmap.marked || n.cmap.lonly) && n.children[0].sweep == sweepLocal &&
			(n.local.on && n.children[0].andsRow(d, d) || d == 1 && n.src == srcAdj && len(n.adj) == 0 && (len(bs) > 0 || !p.lbelow) && n.children[0].andsRow(0, 1)) {
			n.sweep = sweepPair
		}
	})
}

// andsRow: c's local set is level base's AND level d's row, no NotEqual, bounded by d at most.
func (c *node) andsRow(base, d int) bool {
	return c.local.base == base && slices.Equal(c.local.ops, []chainOp{{level: d}}) && len(c.op.NotEqual) == 0 &&
		(len(c.op.UpperBounds) == 0 || slices.Equal(c.op.UpperBounds, []int{d}))
}

// hoistSweeps counts a swept last level from counters kept per vertex of an
// ancestor (DESIGN.md decision 27). It needs the sweep kinds and leaves hoist. A
// node n at depth d that sweeps by scan, weighed or count has as its list L the
// row R of level o = its extender, o ≤ d−2, less its NotEqual ancestors — plain
// adjacency, no chain, no bound —, and its only child c is a plain leaf that scans
// the candidate's own row under one masked op with a need bit, unbounded and
// suspect-free (below a factor, c's B too, needing what c needs, and the factor's
// list F inside L: F's op reads R and excludes each NotEqual ancestor). Then
// Σ_{v ∈ L} |adj(v) ∩ S| = Σ_{x ∈ S} far[x] − Σ_{v ∈ R∖L} |adj(v) ∩ S|, S being
// what the mask passes and far[x] = |adj(x) ∩ R|: counters that stay right while
// level o keeps its vertex, so the sweeps below it gather instead of scan. A list
// cut by deeper rows (a vertex-induced chain) leaves too much of R outside it.
func (p *program) hoistSweeps() {
	p.each(func(n *node, path []*node) {
		d := n.depth
		if n.sweep == noSweep || n.sweep == sweepLocal || n.sweep == sweepPair || n.src != srcAdj || n.op.Extender > d-2 || len(n.adj)+len(n.op.UpperBounds) > 0 {
			return
		}
		gathers := func(t *node) bool {
			return t.src == srcAdj && !t.local.on && t.op.Extender == d && t.cmap.scan != nil && t.cmap.scan[0].need != 0 &&
				t.proof.suspects == nil && len(t.op.UpperBounds) == 0 && t.closed.choose < 2 && t.closed.prod == nil
		}
		c := n.children[0]
		if !gathers(c) {
			return
		}
		if need := c.cmap.scan[0].need; n.sweep == sweepWeighed && (c.fac.minus.cmap.scan[0].need&need != need || !n.fac.inside(n)) {
			return // B's elements are not all in the rows c's gather reads, or F is not all in L
		}
		n.hoist = path[n.op.Extender]
	})
}

// arcCounts reads an edge's common-neighbour count from a heap graph's arc memo
// (DESIGN.md decision 29). It needs the marks and the hoists decided and leaves arc
// and p.arcs. A count-only node t counts the common neighbours of an edge where it
// scans its extender e's row, unbounded and suspect-free, under one masked op that
// needs one level a (arcLevel): |adj(emb[e]) ∩ adj(emb[a])|. Where level e's list
// is a's bare row — no chain, NotEqual, frontier or aux row, and e no factor, whose
// level is unbound; a local e without a chain takes the universe, adj(v0) or a
// prefix of it —, emb[e] is the vertex at e's loop position in that row, and t
// reads the arc there, in count or a scan sweep's loop; not below a weighed sweep,
// whose one pass scans t and its B together. A hoisted weighed node's F walk
// (engine.go, hoistWeighed) counts its leaf with each vertex of the factor's list F
// in place of the leaf's extender; where that count is an edge's and F's op reads
// a's row, F ⊆ adj(emb[a]) and the walk reads the arcs it finds there.
func (p *program) arcCounts() {
	p.each(func(t *node, path []*node) {
		switch {
		case t.mode == leafCount && t.depth >= 2 && path[t.depth-1].sweep != sweepWeighed:
			a, ok := t.arcLevel()
			if e := t.op.Extender; ok && e > a {
				l := path[e]
				t.arc = l.op.Extender == a && l.src == srcAdj && len(l.adj)+len(l.op.NotEqual) == 0 && (l.fac == nil || l.fac.at != l)
			}
		case t.hoist != nil && t.sweep == sweepWeighed:
			a, ok := t.children[0].arcLevel()
			op := t.fac.at.op
			t.arc = ok && (op.Extender == a || slices.Contains(op.Connected, a))
		}
		p.arcs = p.arcs || t.arc
	})
}

// arcLevel is the level a whose whole row t's count intersects with its extender's:
// t scans the extender's row, unbounded and suspect-free, off the local rows, under
// one masked op that needs a alone — unbounded, so a's mark holds its whole row
// (markLevels).
func (t *node) arcLevel() (int, bool) {
	if t.src != srcAdj || t.local.on || len(t.op.UpperBounds) > 0 || t.proof.suspects != nil || len(t.cmap.scan) != 1 {
		return 0, false
	}
	m := t.cmap.scan[0]
	a := bits.TrailingZeros8(m.need)
	return a, m.avoid == 0 && m.need == 1<<a
}

// halfSums counts the edges inside a row from the arc index (DESIGN.md decision 31).
// It needs the sweep kinds and the hoists decided and leaves half and p.arcs. A node
// n that sweeps by count, unhoisted, over the whole row of its extender a — plain
// adjacency, no chain, NotEqual or bound, off the local rows — and whose only child
// c counts, off plain adjacency, exactly row(a) ∩ row(v) below v, v being n's vertex
// — no other source, no Disconnected, no NotEqual that excludes anything — sums over
// the list to the edges inside a's row, each counted from its larger end: the sum of
// a's index slots, which counts each from both ends, over half = 2. Where c has no
// closed form or a product whose only operand A is once — m·A, or m·A − m —, c's
// count over the list is linear in c's count, so the form of the sum is the sum of
// the forms. C(m, ·) and a product with a B are not linear.
func (p *program) halfSums() {
	p.each(func(n *node, _ []*node) {
		if n.sweep != sweepCount || n.hoist != nil || n.local.on || n.src != srcAdj || len(n.adj)+len(n.op.NotEqual)+len(n.op.UpperBounds) > 0 {
			return
		}
		a, c, d := n.op.Extender, n.children[0], n.depth
		op := c.op
		srcs := append([]int{op.Extender}, op.Connected...)
		if c.src == srcAdj && !c.local.on && len(srcs) == 2 && slices.Contains(srcs, a) && slices.Contains(srcs, d) &&
			len(op.Disconnected) == 0 && slices.Equal(op.UpperBounds, []int{d}) && c.proof.certain == nil && c.proof.suspects == nil &&
			c.closed.choose < 2 && (c.closed.prod == nil || len(c.closed.prod) == 1 && c.closed.prod[0].once) {
			n.half, p.arcs = 2, true
		}
	})
}

// inside reports whether the factor's list F is a subset of n's list L, the row of
// n's extender o less its NotEqual ancestors: F's op reads o's row, and each of
// those ancestors is one whose row it reads too (no vertex is its own neighbour)
// or one it excludes.
func (f *factor) inside(n *node) bool {
	op := f.at.op
	reads := func(j int) bool { return op.Extender == j || slices.Contains(op.Connected, j) }
	return reads(n.op.Extender) && !slices.ContainsFunc(n.op.NotEqual, func(j int) bool {
		return !reads(j) && !slices.Contains(op.NotEqual, j)
	})
}

// term: t, m or a term of a closed form below a node at depth d, counts the same
// number, at the same cost, under every vertex of d's list: off plain adjacency,
// with no local row, suspect or chain, naming level d nowhere — a certain d being
// no name only where nothing bounds t, so that every vertex of the list is below.
func (t *node) term(d int) bool {
	return t.src == srcAdj && !t.local.on && t.proof.suspects == nil && len(t.adj) == 0 && !names(t.op, d) &&
		(len(t.op.UpperBounds) == 0 || !slices.Contains(t.proof.certain, d))
}

// localCap is the largest universe a task runs locally (rows are d·⌈d/64⌉
// words: 128 KB), localWords one row's length there.
const localCap, localWords = 1024, localCap / 64

// localNodes makes the static local-row decisions (DESIGN.md decision 21). It
// needs the tree's final shape — a closed form's side nodes are nodes like any
// other — and leaves localUse and the program's local fields.
// Level t ≥ 1 is in the universe when emb[t] ∈ adj(emb[0]) by the plan: level 0
// is its extender or in its Connected. A node at depth ≥ 2 is capable when it and
// every level ≥ 1 its op names are in the universe — its candidates are then an
// AND / AND-NOT of bit rows under a prefix mask — and a trigger when, at depth
// ≥ 3, it evaluates a chain: only there is a row built once and read from more
// than one extension. A node is local iff a trigger or a capable ancestor of one
// (first sweep); its rows and the universe's cuts need every ancestor's answer.
func (p *program) localNodes() {
	p.lcap, p.lbelow, p.ltri = localCap, true, true
	capable := map[*node]bool{}
	p.each(func(n *node, path []*node) {
		outside := func(l int) bool {
			op := n.op
			if l < n.depth {
				op = path[l].op
			}
			return l != 0 && op.Extender != 0 && !slices.Contains(op.Connected, 0)
		}
		capable[n] = n.depth >= 2 && !slices.ContainsFunc(
			slices.Concat([]int{n.depth, n.op.Extender}, n.op.Connected, n.op.Disconnected, n.op.UpperBounds), outside)
		if capable[n] && n.depth >= 3 && n.chained() { // a trigger
			p.local, n.local.on = true, true
			for _, a := range path {
				a.local.on = capable[a]
			}
		}
	})
	p.each(func(n *node, path []*node) {
		if !n.local.on {
			return
		}
		u := &n.local
		below := boundClosure(path, n.op.UpperBounds)
		p.lbelow = p.lbelow && below&1 != 0
		u.ops = append([]chainOp{{level: n.op.Extender}}, n.adj...)
		if n.src == srcFrontier && path[n.srcIdx].local.on {
			u.base, u.ops = n.srcIdx, n.res
		}
		u.ops = slices.DeleteFunc(slices.Clone(u.ops), func(o chainOp) bool { return o.level == 0 })
		for _, o := range append(flatten(n.op.UpperBounds, nil), u.ops...) { // every level n names
			if l := path[o.level]; o.level > 0 && !l.local.on {
				u.look |= 1 << o.level
				p.lbelow = p.lbelow && boundClosure(path, l.op.UpperBounds)&1 != 0
			}
		}
		for _, o := range u.ops {
			p.ltri = p.ltri && below>>o.level&1 != 0
		}
	})
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
