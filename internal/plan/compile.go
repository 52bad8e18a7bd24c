package plan

// The execution-plan generator ("compiler", §V). Compile produces a plan for
// one pattern; CompileMulti merges several patterns into a dependency tree
// (Listing 2); CompileMotifs compiles the vertex-induced k-motif-counting
// plan; CompileCliqueDAG applies the orientation optimization of §V-C.

import (
	"fmt"
	"slices"

	"repro/internal/pattern"
)

// Options configure compilation.
type Options struct {
	// Induced selects vertex-induced matching semantics (exact
	// connectivity, used by k-MC); default is edge-induced (TC, k-CL, SL).
	Induced bool

	// NoSymmetry disables symmetry-order generation. The plan then finds
	// every automorphic copy; engines divide counts by |Aut(P)|. This is
	// the AutoMine [58] baseline mode (TrieJax has the same limitation).
	NoSymmetry bool
}

// Compile generates the execution plan for a single pattern.
func Compile(p *pattern.Pattern, opt Options) (*Plan, error) {
	if err := checkPattern(p); err != nil {
		return nil, err
	}
	ops, less, err := compileChain(p, opt)
	if err != nil {
		return nil, err
	}
	pl := &Plan{
		Patterns: []*pattern.Pattern{p},
		K:        p.Size(),
		Induced:  opt.Induced,
		less:     less,
	}
	pl.Root = chainToNodes(ops, 0)
	finalizeHints(pl, opt, [][][]bool{less})
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("plan: internal error: %w", err)
	}
	return pl, nil
}

// CompileMulti generates a merged dependency-tree plan that mines all the
// given patterns simultaneously. All patterns must have the same size.
func CompileMulti(ps []*pattern.Pattern, opt Options) (*Plan, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("plan: no patterns")
	}
	k := ps[0].Size()
	chains := make([][]VertexOp, len(ps))
	lesses := make([][][]bool, len(ps))
	for i, p := range ps {
		if err := checkPattern(p); err != nil {
			return nil, err
		}
		if p.Size() != k {
			return nil, fmt.Errorf("plan: multi-pattern plans need equal sizes (%d vs %d)", p.Size(), k)
		}
		for j := 0; j < i; j++ {
			if ps[j].IsIsomorphic(p) {
				return nil, fmt.Errorf("plan: patterns %d and %d are isomorphic", j, i)
			}
		}
		ops, less, err := compileChain(p, opt)
		if err != nil {
			return nil, err
		}
		chains[i] = ops
		lesses[i] = less
	}
	// Re-pick later patterns' matching orders to maximize merged prefixes
	// ("common search paths merged to avoid repetitive enumeration", §V-B):
	// among the orders with the same optimal pruning profile, prefer the one
	// whose op chain shares the longest structural prefix with an earlier
	// chain. This is what makes diamond + tailed-triangle share v0,v1,v2
	// (Listing 2).
	for i := 1; i < len(ps); i++ {
		chains[i], lesses[i] = bestMergeableChain(ps[i], opt, chains[:i])
	}
	pl := &Plan{Patterns: ps, K: k, Induced: opt.Induced, less: lesses[0]}
	pl.Root = mergeChains(chains)
	finalizeHints(pl, opt, lesses)
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("plan: internal error: %w", err)
	}
	return pl, nil
}

// CompileMotifs generates the vertex-induced multi-pattern plan for k-motif
// counting (all connected k-vertex patterns).
func CompileMotifs(k int, opt Options) (*Plan, error) {
	opt.Induced = true
	return CompileMulti(pattern.Motifs(k), opt)
}

// CompileCliqueDAG generates the k-clique plan for a degree-oriented DAG
// input (§V-C): after orientation every clique appears exactly once, so no
// symmetry bounds are needed and candidate frontiers chain perfectly.
func CompileCliqueDAG(k int) (*Plan, error) {
	if k < 2 || k > pattern.MaxVertices {
		return nil, fmt.Errorf("plan: clique size %d out of range", k)
	}
	p := pattern.KClique(k)
	ops := make([]VertexOp, k)
	for i := 0; i < k; i++ {
		op := VertexOp{
			Level:        i,
			Extender:     i - 1, // NoLevel at 0
			FrontierBase: NoLevel,
			CMapBound:    NoLevel,
		}
		if i == 0 {
			op.Extender = NoLevel
		}
		for j := 0; j < i-1; j++ {
			op.Connected = append(op.Connected, j)
		}
		ops[i] = op
	}
	less := make([][]bool, k)
	for i := range less {
		less[i] = make([]bool, k)
	}
	// The clique frontier chain (candidates(i) = frontier(i-1) ∩ adj(v_{i-1}))
	// is the memoization that §V-C/§VII-B credit for k-CL efficiency.
	assignFrontierBases(ops, less)
	pl := &Plan{
		Patterns:    []*pattern.Pattern{p},
		K:           k,
		RequiresDAG: true,
		less:        less,
	}
	pl.Root = chainToNodes(ops, 0)
	finalizeHints(pl, Options{}, [][][]bool{less})
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("plan: internal error: %w", err)
	}
	return pl, nil
}

func checkPattern(p *pattern.Pattern) error {
	if p.Size() < 2 {
		return fmt.Errorf("plan: pattern %s too small", p.Name())
	}
	if !p.IsConnected() {
		return fmt.Errorf("plan: pattern %s is disconnected", p.Name())
	}
	return nil
}

// compileChain produces the op chain and less matrix for one pattern under
// its best matching order.
func compileChain(p *pattern.Pattern, opt Options) ([]VertexOp, [][]bool, error) {
	return compileChainOrdered(p, opt, BestMatchingOrder(p))
}

// bestMergeableChain compiles p under the matching order that maximizes the
// structural prefix shared with any of the previously compiled chains,
// restricted to orders with the same connected-ancestor-count profile as the
// best order (so merging never costs pruning power). Ties fall back to the
// standard order preference.
func bestMergeableChain(p *pattern.Pattern, opt Options, prev [][]VertexOp) ([]VertexOp, [][]bool) {
	best := BestMatchingOrder(p)
	bestCA := connectedAncestorCounts(p, best)
	var bestOps []VertexOp
	var bestLess [][]bool
	bestShared := -1
	var bestOrder MatchingOrder
	for _, o := range EnumerateMatchingOrders(p) {
		if !slices.Equal(connectedAncestorCounts(p, o), bestCA) {
			continue
		}
		ops, less, err := compileChainOrdered(p, opt, o)
		if err != nil {
			continue
		}
		shared := 0
		for _, pc := range prev {
			if s := sharedPrefixLen(pc, ops); s > shared {
				shared = s
			}
		}
		if shared > bestShared || (shared == bestShared && scoreBetter(p, o, bestOrder)) {
			bestShared, bestOps, bestLess, bestOrder = shared, ops, less, o
		}
	}
	return bestOps, bestLess
}

// sharedPrefixLen counts how many leading ops (beyond the trivial level 0)
// two chains share structurally.
func sharedPrefixLen(a, b []VertexOp) int {
	n := 0
	for i := 1; i < len(a) && i < len(b); i++ {
		if !a[i].structurallyEqual(b[i]) || !hintsEqual(a[i], b[i]) {
			break
		}
		n++
	}
	return n
}

// compileChainOrdered produces the op chain and less matrix for one pattern
// under a specific matching order.
func compileChainOrdered(p *pattern.Pattern, opt Options, order MatchingOrder) ([]VertexOp, [][]bool, error) {
	k := p.Size()
	q := relabelByOrder(p, order)

	var cs []SymmetryConstraint
	if !opt.NoSymmetry {
		cs = SymmetryOrder(q)
	}
	less := lessMatrix(k, cs)
	bounds := boundsPerLevel(k, cs, less)

	ops := make([]VertexOp, k)
	for i := 0; i < k; i++ {
		op := VertexOp{
			Level:        i,
			Extender:     NoLevel,
			FrontierBase: NoLevel,
			CMapBound:    NoLevel,
			UpperBounds:  bounds[i],
		}
		if i > 0 {
			op.Extender = extenderFor(q, i)
			for j := 0; j < i; j++ {
				switch {
				case j == op.Extender:
				case q.HasEdge(i, j):
					op.Connected = append(op.Connected, j)
				case opt.Induced:
					op.Disconnected = append(op.Disconnected, j)
				}
			}
			op.NotEqual = notEqualSet(q, op, less, opt.Induced)
		}
		ops[i] = op
	}
	assignFrontierBases(ops, less)
	return ops, less, nil
}

// notEqualSet lists earlier levels whose distinctness from the candidate is
// not already implied by adjacency (no self loops) or a strict ID bound.
func notEqualSet(q *pattern.Pattern, op VertexOp, less [][]bool, induced bool) []int {
	var out []int
	for j := 0; j < op.Level; j++ {
		if j == op.Extender || q.HasEdge(op.Level, j) {
			continue // candidate is adjacent to emb[j], hence distinct
		}
		if less[op.Level][j] || less[j][op.Level] {
			continue // strict order implies distinctness
		}
		if induced {
			// Vertex-induced plans check disconnection against emb[j];
			// that check alone does not imply distinctness, so keep j.
			out = append(out, j)
			continue
		}
		out = append(out, j)
	}
	return out
}

// sourceSet returns {Extender} ∪ Connected as a sorted slice.
func sourceSet(op VertexOp) []int {
	s := append([]int{op.Extender}, op.Connected...)
	slices.Sort(s)
	return s
}

// assignFrontierBases finds, for each level, the deepest earlier level whose
// qualified candidate frontier is a valid starting set (§V-C). Validity:
//
//   - sources(base) ⊆ sources(this) and disconnected(base) ⊆ disconnected(this):
//     the base frontier was built from a subset of this level's constraints;
//   - every ID bound applied at the base is implied by this level's bounds
//     under the transitive symmetry order (otherwise the base frontier is
//     over-filtered);
//   - the memoized list is itself the result of a multi-list set operation
//     (|sources| ≥ 2 or a non-empty difference). Reusing a plain adjacency
//     list saves nothing — worse, it defeats the c-map's amortization: the
//     paper's 4-cycle plan iterates the extender's adjacency and queries the
//     c-map against an ancestor inserted once at a shallow level (read
//     ratios of 93–98%, §VII-C), which reuse of adj(v0) would invert into
//     one insertion per deep extension.
func assignFrontierBases(ops []VertexOp, less [][]bool) {
	for i := 2; i < len(ops); i++ {
		op := &ops[i]
		si := sourceSet(*op)
		best := NoLevel
		for j := i - 1; j >= 1; j-- {
			bj := ops[j]
			sj := sourceSet(bj)
			if len(sj) < 2 && len(bj.Disconnected) == 0 {
				continue // plain adjacency list; not worth memoizing
			}
			if !subset(sj, si) || !subset(bj.Disconnected, op.Disconnected) {
				continue
			}
			if !boundsImplied(op.UpperBounds, bj.UpperBounds, less) {
				continue
			}
			if best == NoLevel || len(sj) > len(sourceSet(ops[best])) {
				best = j
			}
		}
		if best == NoLevel {
			continue
		}
		op.FrontierBase = best
		baseS := sourceSet(ops[best])
		for _, s := range si {
			if !slices.Contains(baseS, s) {
				op.IntersectWith = append(op.IntersectWith, s)
			}
		}
		for _, d := range op.Disconnected {
			if !slices.Contains(ops[best].Disconnected, d) {
				op.DifferenceWith = append(op.DifferenceWith, d)
			}
		}
	}
}

// boundsImplied reports whether every bound in base is implied by some bound
// in cur: cand < emb[a] and emb[a] < emb[b] (provable) imply cand < emb[b].
func boundsImplied(cur, base []int, less [][]bool) bool {
	for _, b := range base {
		ok := false
		for _, a := range cur {
			if a == b || less[a][b] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func subset(a, b []int) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// chainToNodes turns an op chain into a degenerate tree whose leaf completes
// pattern patternIdx.
func chainToNodes(ops []VertexOp, patternIdx int) *Node {
	var root, cur *Node
	for i := range ops {
		n := &Node{Op: ops[i], PatternIdx: NoLevel}
		if root == nil {
			root = n
		} else {
			cur.Children = append(cur.Children, n)
		}
		cur = n
	}
	cur.PatternIdx = patternIdx
	return root
}

// mergeChains builds the multi-pattern dependency tree, merging structurally
// equal common prefixes (Listing 2: diamond and tailed-triangle share
// v0,v1,v2).
func mergeChains(chains [][]VertexOp) *Node {
	root := &Node{Op: chains[0][0], PatternIdx: NoLevel}
	for idx, chain := range chains {
		cur := root
		for lvl := 1; lvl < len(chain); lvl++ {
			var next *Node
			for _, c := range cur.Children {
				if c.Op.structurallyEqual(chain[lvl]) && hintsEqual(c.Op, chain[lvl]) {
					next = c
					break
				}
			}
			if next == nil {
				next = &Node{Op: chain[lvl].clone(), PatternIdx: NoLevel}
				cur.Children = append(cur.Children, next)
			}
			cur = next
		}
		cur.PatternIdx = idx
	}
	return root
}

// hintsEqual guards merging: ops merge only when their frontier
// decompositions agree (they do whenever the structural prefix agrees, since
// the decomposition is a deterministic function of it).
func hintsEqual(a, b VertexOp) bool {
	return a.FrontierBase == b.FrontierBase &&
		slices.Equal(a.IntersectWith, b.IntersectWith) &&
		slices.Equal(a.DifferenceWith, b.DifferenceWith)
}

// finalizeHints runs the whole-tree hint passes: frontier memoization marks
// and c-map management hints (§VI-B). lesses holds the per-pattern transitive
// orders, indexed like Plan.Patterns.
func finalizeHints(pl *Plan, opt Options, lesses [][][]bool) {
	pl.CountDivisor = make([]int64, len(pl.Patterns))
	for i, p := range pl.Patterns {
		pl.CountDivisor[i] = 1
		if opt.NoSymmetry && !pl.RequiresDAG {
			pl.CountDivisor[i] = int64(p.AutomorphismCount())
		}
	}
	// Pass 1: mark memoized frontiers — any node referenced as a
	// FrontierBase by a descendant on the same root path.
	var path []*Node
	var mark func(n *Node)
	mark = func(n *Node) {
		path = append(path, n)
		if fb := n.Op.FrontierBase; fb != NoLevel {
			path[fb].Op.MemoizeFrontier = true
		}
		for _, c := range n.Children {
			mark(c)
		}
		path = path[:len(path)-1]
	}
	mark(pl.Root)

	// Pass 2: InsertCMap(j) on a node iff some descendant queries level j;
	// CMapBound(j) is a level b whose bound provably dominates every such
	// query's candidates (so inserting only IDs < emb[b] is lossless).
	// Validity must hold under every querying pattern's own order, so we
	// intersect candidate bounds across the leaf patterns below each query.
	var walk func(n *Node, path []*Node)
	walk = func(n *Node, path []*Node) {
		path = append(path, n)
		for _, c := range n.Children {
			walk(c, path)
		}
		if !n.IsLeaf() {
			return
		}
		less := lesses[n.PatternIdx]
		for _, q := range path {
			for _, j := range cmapQuery(&q.Op) {
				ins := &path[j].Op
				if !ins.InsertCMap {
					ins.InsertCMap = true
					ins.CMapBound = validCMapBound(j, q.Op.UpperBounds, less)
				} else if ins.CMapBound != NoLevel {
					// Keep the bound only if this query also implies it.
					if !boundImpliedBy(ins.CMapBound, q.Op.UpperBounds, less) {
						ins.CMapBound = NoLevel
					}
				}
			}
		}
	}
	walk(pl.Root, nil)

	// Pass 3: auxiliary-graph directives (aux.go). Runs last so frontier
	// bases, residual sets, and the merged tree shape are final; the
	// directives are hints layered on top and never change what any pass
	// above decided.
	assignAuxDirectives(pl, lesses)
}

// cmapQuery returns the levels op checks per candidate element through the
// c-map, in ascending order: the residual intersect/difference levels when a
// frontier base exists, or the full connected/disconnected sets otherwise.
func cmapQuery(op *VertexOp) []int {
	if op.Level == 0 {
		return nil
	}
	if op.FrontierBase != NoLevel {
		return slices.Sorted(slices.Values(slices.Concat(op.IntersectWith, op.DifferenceWith)))
	}
	return slices.Sorted(slices.Values(slices.Concat(op.Connected, op.Disconnected)))
}

// validCMapBound returns a level b ≤ j usable as the insertion ID bound for
// level j given one query's upper bounds, or NoLevel. Preference: the bound
// whose value is provably smallest (prunes the most insertions).
func validCMapBound(j int, queryBounds []int, less [][]bool) int {
	var valid []int
	for b := 0; b <= j; b++ {
		if boundImpliedBy(b, queryBounds, less) {
			valid = append(valid, b)
		}
	}
	if len(valid) == 0 {
		return NoLevel
	}
	best := valid[0]
	for _, b := range valid[1:] {
		if less[b][best] { // emb[b] provably smaller → tighter filter
			best = b
		}
	}
	return best
}

// boundImpliedBy reports whether cand < emb[b] follows from the query's
// bounds: some a in bounds with a == b or emb[a] < emb[b] provable.
func boundImpliedBy(b int, bounds []int, less [][]bool) bool {
	for _, a := range bounds {
		if a == b || less[a][b] {
			return true
		}
	}
	return false
}
