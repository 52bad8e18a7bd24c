// Package plan implements the FlexMiner compiler (§V of the paper): it turns
// a pattern (or set of patterns) into a pattern-specific execution plan — the
// intermediate representation (IR) that is "downloaded" into the accelerator
// and that the CPU engines interpret.
//
// A plan captures, per search-tree level,
//
//   - the matching order (which pattern vertex is matched at which depth and
//     from whose adjacency list candidates are drawn),
//   - the symmetry order (vertex-ID bounds that break automorphisms, §II-B),
//   - connectivity constraints (the pruneBy connected-ancestor set,
//     Listing 1), and
//   - storage-management hints: which levels insert their neighbor lists into
//     the c-map and under which ID bound (§VI-B), and which candidate
//     frontiers are memoized and reused (§V-C).
//
// Multi-pattern problems compile to a dependency tree whose common prefix is
// merged (Listing 2); single patterns are a degenerate chain.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/pattern"
)

// NoLevel marks an absent level reference in VertexOp fields.
const NoLevel = -1

// VertexOp describes how the vertex at one search-tree level is extended and
// pruned. Level indices refer to positions in the current embedding (the
// ancestor stack): level 0 is the task vertex v0.
type VertexOp struct {
	// Level is this op's depth in the search tree (0-based).
	Level int

	// Extender is the embedding index whose adjacency list supplies the
	// candidates (the "v_i ∈ v_e.N" part of the IR). NoLevel at level 0,
	// where candidates are all of V.
	Extender int

	// Connected lists embedding indices, other than Extender, that the
	// candidate must be adjacent to (the pruneBy connected-ancestor set).
	Connected []int

	// Disconnected lists embedding indices the candidate must NOT be
	// adjacent to. Empty for edge-induced plans; vertex-induced plans
	// (k-motif counting) list every non-adjacent ancestor here.
	Disconnected []int

	// UpperBounds lists embedding indices b with the symmetry-order
	// constraint candidate < emb[b]. The engine applies the minimum.
	UpperBounds []int

	// NotEqual lists embedding indices the candidate must be explicitly
	// checked against for distinctness; indices whose inequality is already
	// implied by adjacency or bounds are omitted by the compiler.
	NotEqual []int

	// FrontierBase, if not NoLevel, names an earlier level whose memoized
	// candidate frontier is a valid starting set for this level: this op's
	// candidates equal that frontier intersected with the adjacency of the
	// IntersectWith levels (minus DifferenceWith), under this op's bounds.
	FrontierBase int

	// IntersectWith / DifferenceWith are the residual source levels to
	// apply on top of FrontierBase. When FrontierBase is NoLevel they are
	// derived from Extender/Connected/Disconnected instead and left empty.
	IntersectWith  []int
	DifferenceWith []int

	// MemoizeFrontier marks that this level's qualified candidate list will
	// be reused by a deeper level and should be kept in the PE-local cache
	// (frontier-list table, §IV-A).
	MemoizeFrontier bool

	// InsertCMap marks that, once this level's vertex is fixed, its
	// neighbor list should be inserted into the c-map because a deeper
	// level checks connectivity against it (§VI-B).
	InsertCMap bool

	// CMapBound, if not NoLevel, is an embedding index b such that only
	// neighbors with ID < emb[b] need to be inserted into the c-map — the
	// compiler-derived footprint reduction of §VI-B.
	CMapBound int

	// BuildAux lists Plan.AuxSpecs indices activated once this level's
	// vertex is fixed: the engine lazily materializes pruned adjacency rows
	// for the spec's universe and reuses them across the whole subtree
	// (auxiliary-graph pruning, the GraphMini-style generalization of
	// frontier memoization).
	BuildAux []int

	// AuxBase, if not NoLevel, is the Plan.AuxSpecs index whose
	// materialized row for emb[Extender] replaces the extender's full
	// adjacency list as this op's starting candidate set. AuxIntersect /
	// AuxDifference are the residual source levels still applied on top
	// (Connected / Disconnected minus the levels folded into the rows).
	AuxBase       int
	AuxIntersect  []int
	AuxDifference []int
}

// clone returns a deep copy of the op.
func (op VertexOp) clone() VertexOp {
	cp := op
	cp.Connected = slices.Clone(op.Connected)
	cp.Disconnected = slices.Clone(op.Disconnected)
	cp.UpperBounds = slices.Clone(op.UpperBounds)
	cp.NotEqual = slices.Clone(op.NotEqual)
	cp.IntersectWith = slices.Clone(op.IntersectWith)
	cp.DifferenceWith = slices.Clone(op.DifferenceWith)
	cp.BuildAux = slices.Clone(op.BuildAux)
	cp.AuxIntersect = slices.Clone(op.AuxIntersect)
	cp.AuxDifference = slices.Clone(op.AuxDifference)
	return cp
}

// structurallyEqual reports whether two ops describe the same extension step
// (used when merging multi-pattern dependency chains into a tree).
func (a VertexOp) structurallyEqual(b VertexOp) bool {
	return a.Level == b.Level &&
		a.Extender == b.Extender &&
		slices.Equal(a.Connected, b.Connected) &&
		slices.Equal(a.Disconnected, b.Disconnected) &&
		slices.Equal(a.UpperBounds, b.UpperBounds)
}

// Node is one vertex-extension step in a (possibly multi-pattern) dependency
// tree. A chain of Nodes is the single-pattern case; branching encodes the
// divergence of multiple patterns after a merged common prefix (Listing 2).
type Node struct {
	Op       VertexOp
	Children []*Node

	// PatternIdx is the index into Plan.Patterns of the pattern completed
	// when this node's level is matched; NoLevel (-1) for interior nodes.
	PatternIdx int
}

// IsLeaf reports whether a completed match at this node should be counted.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// AuxSpec describes one auxiliary graph (§"Auxiliary-graph pruning",
// DESIGN.md decision 14): once the embedding is fixed through level Level,
// the candidate universe of some later extender level is a subset of
// adj(emb[Universe]), and every element x of that universe contributes rows
//
//	aux[x] = adj(x) ∩ adj(emb[j]) for j ∈ Intersect \ ∪ adj(emb[j]) for j ∈ Difference
//
// (bounded by emb[RowBound] when set). Consumer ops whose AuxBase names this
// spec substitute aux[emb[Extender]] for the full adjacency row, hoisting the
// loop-invariant part of their set-operation chain out of the subtree below
// Level. Rows are materialized lazily and reused across the Gap intermediate
// levels, so the same intersection is computed once instead of once per
// intermediate embedding.
type AuxSpec struct {
	// Level is the activation depth k: emb[0..k] fixed, rows valid until
	// the DFS backtracks above k.
	Level int

	// Universe is the embedding index u whose adjacency list bounds the
	// consumer's candidate universe: every looked-up key is in adj(emb[u]).
	Universe int

	// Intersect / Difference are the embedding indices (all ≤ Level) whose
	// adjacency is folded into each row.
	Intersect  []int
	Difference []int

	// RowBound, if not NoLevel, is an embedding index b ≤ Level whose value
	// provably dominates every consumer's symmetry bound, so rows only keep
	// elements < emb[b].
	RowBound int

	// Uses counts the consumer ops referencing this spec; Gap is the
	// maximum number of intermediate levels between activation and a
	// consumer (both feed the engine's lowering-time cost model, core's
	// auxNodes).
	Uses int
	Gap  int
}

// Plan is a compiled execution plan.
type Plan struct {
	// Patterns are the mined patterns; counters are reported in this order.
	Patterns []*pattern.Pattern

	// Root is the level-0 op (task vertex); the tree below it spells out
	// every deeper extension step.
	Root *Node

	// K is the maximum embedding size (pattern size).
	K int

	// Induced records vertex-induced matching semantics (k-motif counting);
	// false means edge-induced (TC, k-CL, SL).
	Induced bool

	// RequiresDAG marks plans compiled for a degree-oriented DAG input
	// (the k-clique orientation optimization of §V-C): the engine must be
	// given g.Orient() and no symmetry bounds are present.
	RequiresDAG bool

	// CountDivisor holds, per pattern, the factor raw match counts must be
	// divided by. It is 1 with symmetry breaking; plans compiled with
	// Options.NoSymmetry (the AutoMine baseline mode) set it to |Aut(P)|,
	// since every copy is then found once per automorphism.
	CountDivisor []int64

	// AuxSpecs are the auxiliary graphs the compiler proved profitable to
	// offer; ops reference them by index via BuildAux/AuxBase. Engines may
	// ignore them entirely (counts do not depend on them).
	AuxSpecs []AuxSpec

	// less[a][b] records that emb[a] < emb[b] is provable from the symmetry
	// order (transitively closed); used to justify hint validity.
	less [][]bool
}

// Less reports whether the symmetry order proves emb[a] < emb[b].
func (p *Plan) Less(a, b int) bool { return p.less[a][b] }

// Chain returns the ops of a single-pattern plan as a flat slice, or nil if
// the plan branches.
func (p *Plan) Chain() []VertexOp {
	var ops []VertexOp
	for n := p.Root; n != nil; {
		ops = append(ops, n.Op)
		switch len(n.Children) {
		case 0:
			n = nil
		case 1:
			n = n.Children[0]
		default:
			return nil
		}
	}
	return ops
}

// Validate checks structural invariants of the plan; engines call it once
// before mining.
func (p *Plan) Validate() error {
	if p.Root == nil {
		return fmt.Errorf("plan: nil root")
	}
	if len(p.Patterns) == 0 {
		return fmt.Errorf("plan: no patterns")
	}
	for i, s := range p.AuxSpecs {
		if s.Level < 0 {
			return fmt.Errorf("plan: aux spec %d activates at negative level %d", i, s.Level)
		}
		if s.Universe < 0 || s.Universe > s.Level {
			return fmt.Errorf("plan: aux spec %d universe %d outside [0, %d]", i, s.Universe, s.Level)
		}
		if len(s.Intersect)+len(s.Difference) == 0 {
			return fmt.Errorf("plan: aux spec %d folds no sources (rows would equal plain adjacency)", i)
		}
		for _, set := range [][]int{s.Intersect, s.Difference} {
			for _, j := range set {
				if j < 0 || j > s.Level {
					return fmt.Errorf("plan: aux spec %d folds level %d outside [0, %d]", i, j, s.Level)
				}
			}
		}
		if s.RowBound != NoLevel && (s.RowBound < 0 || s.RowBound > s.Level) {
			return fmt.Errorf("plan: aux spec %d row bound %d outside [0, %d]", i, s.RowBound, s.Level)
		}
	}
	seen := make([]bool, len(p.Patterns))
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		op := n.Op
		if op.Level != depth {
			return fmt.Errorf("plan: node at depth %d has level %d", depth, op.Level)
		}
		if depth == 0 {
			if op.Extender != NoLevel {
				return fmt.Errorf("plan: level-0 op must have no extender")
			}
		} else if op.Extender < 0 || op.Extender >= depth {
			return fmt.Errorf("plan: level %d extender %d out of range", depth, op.Extender)
		}
		for _, set := range [][]int{op.Connected, op.Disconnected, op.UpperBounds, op.NotEqual, op.IntersectWith, op.DifferenceWith, op.AuxIntersect, op.AuxDifference} {
			for _, j := range set {
				if j < 0 || j >= depth {
					return fmt.Errorf("plan: level %d references out-of-range level %d", depth, j)
				}
			}
		}
		if op.FrontierBase != NoLevel && (op.FrontierBase < 1 || op.FrontierBase >= depth) {
			return fmt.Errorf("plan: level %d frontier base %d out of range", depth, op.FrontierBase)
		}
		// Aux fields are only meaningful on compiled plans that carry specs;
		// hand-built plans (zero-valued aux fields, no specs) skip this.
		if len(p.AuxSpecs) > 0 {
			for _, s := range op.BuildAux {
				if s < 0 || s >= len(p.AuxSpecs) {
					return fmt.Errorf("plan: level %d builds out-of-range aux spec %d", depth, s)
				}
				if p.AuxSpecs[s].Level != depth {
					return fmt.Errorf("plan: level %d builds aux spec %d declared for level %d", depth, s, p.AuxSpecs[s].Level)
				}
			}
			if op.AuxBase != NoLevel {
				if op.AuxBase < 0 || op.AuxBase >= len(p.AuxSpecs) {
					return fmt.Errorf("plan: level %d aux base %d out of range", depth, op.AuxBase)
				}
				spec := p.AuxSpecs[op.AuxBase]
				if spec.Level > depth-2 {
					return fmt.Errorf("plan: level %d aux base activates too deep (level %d)", depth, spec.Level)
				}
				if op.Extender == NoLevel {
					return fmt.Errorf("plan: level %d aux base without an extender", depth)
				}
			}
		}
		if n.IsLeaf() {
			if depth != p.K-1 {
				return fmt.Errorf("plan: leaf at depth %d, want %d", depth, p.K-1)
			}
			if n.PatternIdx < 0 || n.PatternIdx >= len(p.Patterns) {
				return fmt.Errorf("plan: leaf pattern index %d out of range", n.PatternIdx)
			}
			if seen[n.PatternIdx] {
				return fmt.Errorf("plan: pattern %d has multiple leaves", n.PatternIdx)
			}
			seen[n.PatternIdx] = true
			return nil
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.Root, 0); err != nil {
		return err
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("plan: pattern %d (%s) has no leaf", i, p.Patterns[i].Name())
		}
	}
	return nil
}

// String renders the plan in the paper's Listing 1/2 IR style: a vertex
// section of pruneBy primitives and an embedding section of dependency links.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %s", p.Patterns[0].Name())
	for _, q := range p.Patterns[1:] {
		fmt.Fprintf(&sb, ", %s", q.Name())
	}
	if p.Induced {
		sb.WriteString(" (vertex-induced)")
	}
	if p.RequiresDAG {
		sb.WriteString(" (oriented DAG)")
	}
	sb.WriteString("\nvertex:\n")
	var ids []string
	var walkV func(n *Node, label string)
	walkV = func(n *Node, label string) {
		op := n.Op
		// The op's own label must be addressable (a c-map bound may refer
		// to the op's own level, e.g. "insert only neighbors < v0" at v0).
		ids = append(ids, label)
		src := "V"
		if op.Extender != NoLevel {
			src = fmt.Sprintf("v%s.N", ids[op.Extender])
		}
		bound := "inf"
		if len(op.UpperBounds) > 0 {
			parts := make([]string, len(op.UpperBounds))
			for i, b := range op.UpperBounds {
				parts[i] = fmt.Sprintf("v%s.id", ids[b])
			}
			bound = strings.Join(parts, ",")
		}
		conn := make([]string, len(op.Connected))
		for i, c := range op.Connected {
			conn[i] = "v" + ids[c]
		}
		line := fmt.Sprintf("  v%-3s in %-8s pruneBy(%s, {%s})", label, src, bound, strings.Join(conn, ","))
		if len(op.Disconnected) > 0 {
			dis := make([]string, len(op.Disconnected))
			for i, d := range op.Disconnected {
				dis[i] = "v" + ids[d]
			}
			line += fmt.Sprintf(" notAdj{%s}", strings.Join(dis, ","))
		}
		var hints []string
		if op.InsertCMap {
			h := "cmap-insert"
			if op.CMapBound != NoLevel {
				h += fmt.Sprintf("(<v%s)", ids[op.CMapBound])
			}
			hints = append(hints, h)
		}
		if op.MemoizeFrontier {
			hints = append(hints, "memoize")
		}
		if op.FrontierBase != NoLevel {
			hints = append(hints, fmt.Sprintf("reuse(v%s)", ids[op.FrontierBase]))
		}
		for _, s := range op.BuildAux {
			spec := p.AuxSpecs[s]
			parts := make([]string, 0, len(spec.Intersect)+len(spec.Difference))
			for _, j := range spec.Intersect {
				parts = append(parts, fmt.Sprintf("∩v%s.N", ids[j]))
			}
			for _, j := range spec.Difference {
				parts = append(parts, fmt.Sprintf("∖v%s.N", ids[j]))
			}
			h := fmt.Sprintf("aux-build#%d[x∈v%s.N: x.N%s]", s, ids[spec.Universe], strings.Join(parts, ""))
			if spec.RowBound != NoLevel {
				h += fmt.Sprintf("(<v%s)", ids[spec.RowBound])
			}
			hints = append(hints, h)
		}
		if op.AuxBase != NoLevel && len(p.AuxSpecs) > 0 {
			hints = append(hints, fmt.Sprintf("aux#%d", op.AuxBase))
		}
		if len(hints) > 0 {
			line += "  // " + strings.Join(hints, ", ")
		}
		sb.WriteString(line + "\n")
		for i, c := range n.Children {
			next := fmt.Sprint(op.Level + 1)
			if len(n.Children) > 1 {
				next = fmt.Sprintf("%d%c", op.Level+1, 'a'+i)
			}
			walkV(c, next)
		}
		ids = ids[:len(ids)-1]
	}
	walkV(p.Root, "0")
	sb.WriteString("embedding:\n")
	var walkE func(n *Node, prev, label string)
	walkE = func(n *Node, prev, label string) {
		if n.Op.Level == 0 {
			fmt.Fprintf(&sb, "  emb0 := v0\n")
		} else {
			fmt.Fprintf(&sb, "  emb%-3s := emb%s + v%s", label, prev, label)
			if n.IsLeaf() {
				fmt.Fprintf(&sb, "   // matches %s", p.Patterns[n.PatternIdx].Name())
			}
			sb.WriteString("\n")
		}
		for i, c := range n.Children {
			next := fmt.Sprint(n.Op.Level + 1)
			if len(n.Children) > 1 {
				next = fmt.Sprintf("%d%c", n.Op.Level+1, 'a'+i)
			}
			walkE(c, label, next)
		}
	}
	walkE(p.Root, "", "0")
	return sb.String()
}
