package plan

// Auxiliary-graph directive computation (DESIGN.md decision 14). GraphMini
// and DwarvesGraph (PAPERS.md) observe that deep DFS subtrees repeat the same
// shallow-source intersections once per intermediate embedding: for an op at
// level d extending from adj(emb[t]) and intersecting adj(emb[j]) for some j
// fixed well above d, the result depends only on (emb[j..], emb[t]) — not on
// the levels iterated in between — so materializing it once per distinct
// emb[t] and reusing it across the subtree removes a multiplicative factor of
// work. Frontier memoization (§V-C, assignFrontierBases) already covers the
// case where the whole candidate list of an ancestor level is the starting
// set; auxiliary graphs generalize it to per-key pruned adjacency rows when
// no ancestor frontier qualifies.
//
// The pass runs on the finalized (merged, frontier-annotated) tree and emits,
// per qualifying consumer op, a directive triple:
//
//   - an AuxSpec (activation level k, universe ancestor u, folded source
//     levels J/D, optional row bound) appended to Plan.AuxSpecs,
//   - BuildAux on the level-k ancestor node (activate there),
//   - AuxBase + residual AuxIntersect/AuxDifference on the consumer.
//
// Directives are hints: engines that ignore them (the simulator, aux-off
// runs) mine identical counts, and the plan itself is byte-identical either
// way — the goldens lock the directives alongside the other hints.

import (
	"fmt"
	"slices"
)

// auxSpecFor derives the auxiliary-graph spec for one op on one root path,
// or reports that none qualifies. Qualification mirrors the frontier-base
// rules in spirit but keys rows per extender value instead of per ancestor
// frontier:
//
//   - the op extends from a level t ≥ 1 and has no frontier base (frontier
//     reuse already hoists the whole chain when it applies);
//   - at least one connected/disconnected source j sits at or above the
//     activation cut k = max(u, J ∪ D), with k ≤ Level-2 so a full level of
//     the subtree is hoisted over;
//   - the reuse gap — intermediate levels strictly between k and Level other
//     than t itself — is nonzero. Without it every row would be looked up at
//     most once per activation (cliques, 4-cycles), and the aux graph would
//     be pure copy overhead.
//
// Universe soundness: candidates at level t are always a subset of
// adj(emb[u]) for u = extender(t) — a frontier base at t only intersects
// further sources on top, and hub slicing restricts to a contiguous range —
// so adj(emb[u]) is a valid key universe with emb[u] fixed at k ≥ u.
func auxSpecFor(op *VertexOp, path []*Node) (AuxSpec, bool) {
	if op.Level < 2 || op.FrontierBase != NoLevel || op.Extender < 1 {
		return AuxSpec{}, false
	}
	t := op.Extender
	u := path[t].Op.Extender
	kmax := op.Level - 2
	var J, D []int
	for _, j := range op.Connected {
		if j <= kmax {
			J = append(J, j)
		}
	}
	for _, j := range op.Disconnected {
		if j <= kmax {
			D = append(D, j)
		}
	}
	if len(J)+len(D) == 0 {
		return AuxSpec{}, false
	}
	k := u
	for _, set := range [][]int{J, D} {
		for _, j := range set {
			if j > k {
				k = j
			}
		}
	}
	if k > kmax {
		return AuxSpec{}, false
	}
	gap := 0
	for l := k + 1; l < op.Level; l++ {
		if l != t {
			gap++
		}
	}
	if gap < 1 {
		return AuxSpec{}, false
	}
	return AuxSpec{
		Level:      k,
		Universe:   u,
		Intersect:  J,
		Difference: D,
		RowBound:   NoLevel,
		Gap:        gap,
	}, true
}

// validAuxRowBound returns an embedding index b ≤ k whose value provably
// dominates the consumer's symmetry bound under every leaf pattern below the
// consumer (so rows truncated at emb[b] lose nothing any consumer keeps), or
// NoLevel. Mirrors validCMapBound, intersected across the consumer's leaves.
func validAuxRowBound(k int, queryBounds []int, leafPatterns []int, lesses [][][]bool) int {
	var valid []int
	for b := 0; b <= k; b++ {
		ok := true
		for _, pi := range leafPatterns {
			if !boundImpliedBy(b, queryBounds, lesses[pi]) {
				ok = false
				break
			}
		}
		if ok {
			valid = append(valid, b)
		}
	}
	if len(valid) == 0 {
		return NoLevel
	}
	best := valid[0]
	for _, b := range valid[1:] {
		if lesses[leafPatterns[0]][b][best] { // provably smaller → tighter rows
			best = b
		}
	}
	return best
}

// assignAuxDirectives is the whole-tree pass: it resets every aux field,
// derives specs per consumer, dedupes identical specs plan-wide, and attaches
// build directives to the activation-level ancestors. Deterministic: tree
// walk order fixes spec numbering.
func assignAuxDirectives(pl *Plan, lesses [][][]bool) {
	pl.AuxSpecs = nil
	var reset func(n *Node)
	reset = func(n *Node) {
		n.Op.AuxBase = NoLevel
		n.Op.BuildAux = nil
		n.Op.AuxIntersect = nil
		n.Op.AuxDifference = nil
		for _, c := range n.Children {
			reset(c)
		}
	}
	reset(pl.Root)

	// leavesBelow[n]: pattern indices completed in n's subtree (row-bound
	// validity must hold under each one's symmetry order).
	leavesBelow := map[*Node][]int{}
	var collect func(n *Node) []int
	collect = func(n *Node) []int {
		var out []int
		if n.IsLeaf() {
			out = []int{n.PatternIdx}
		}
		for _, c := range n.Children {
			out = append(out, collect(c)...)
		}
		leavesBelow[n] = out
		return out
	}
	collect(pl.Root)

	specID := map[string]int{}
	var walk func(n *Node, path []*Node)
	walk = func(n *Node, path []*Node) {
		path = append(path, n)
		op := &n.Op
		if spec, ok := auxSpecFor(op, path); ok {
			spec.RowBound = validAuxRowBound(spec.Level, op.UpperBounds, leavesBelow[n], lesses)
			key := fmt.Sprint(spec.Level, spec.Universe, spec.Intersect, spec.Difference, spec.RowBound)
			id, seen := specID[key]
			if !seen {
				id = len(pl.AuxSpecs)
				specID[key] = id
				pl.AuxSpecs = append(pl.AuxSpecs, spec)
			} else if g := spec.Gap; g > pl.AuxSpecs[id].Gap {
				pl.AuxSpecs[id].Gap = g
			}
			pl.AuxSpecs[id].Uses++
			// Activate on this path's ancestor at the spec level (a deduped
			// spec may be consumed on several branches with distinct
			// activation nodes).
			build := &path[spec.Level].Op
			if !slices.Contains(build.BuildAux, id) {
				build.BuildAux = append(build.BuildAux, id)
			}
			op.AuxBase = id
			op.AuxIntersect = residualLevels(op.Connected, spec.Intersect)
			op.AuxDifference = residualLevels(op.Disconnected, spec.Difference)
		}
		for _, c := range n.Children {
			walk(c, path)
		}
	}
	walk(pl.Root, nil)
}

// residualLevels returns the members of all not folded into the spec (the
// sources the consumer still applies per lookup).
func residualLevels(all, folded []int) []int {
	var out []int
	for _, j := range all {
		if !slices.Contains(folded, j) {
			out = append(out, j)
		}
	}
	return out
}
