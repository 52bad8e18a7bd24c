package plan

// Symmetry-order generation (§II-B, Fig 6). Automorphic copies of a pattern
// would otherwise be discovered once per automorphism; the compiler breaks
// the symmetry with partial orders on the matched data-vertex IDs so that
// exactly one canonical copy survives.
//
// We use the stabilizer-chain construction on Aut(P) (the GraphZero [57]
// approach): repeatedly take the smallest vertex moved by the remaining
// automorphism group, constrain it to carry the largest data-vertex ID of its
// orbit, and descend into its stabilizer. Every constraint relates a level to
// a *later* level, so all constraints become vid upper bounds — exactly the
// pruneBy bound field of the IR (Listing 1).

import "slices"

// SymmetryConstraint asserts emb[Hi] < emb[Lo] for levels Lo < Hi: the vertex
// matched later must have the smaller data-vertex ID (the paper's convention,
// e.g. {v1 < v0, v2 < v1, v3 < v0} for the 4-cycle).
type SymmetryConstraint struct {
	Lo int // earlier level, holds the larger ID
	Hi int // later level, holds the smaller ID
}

// patternLike is the minimal pattern surface symmetry generation needs.
type patternLike interface {
	Size() int
	Automorphisms() [][]int
}

// SymmetryOrder computes the symmetry-breaking constraints for a pattern
// whose vertex labels already equal plan levels (i.e. after relabelByOrder).
func SymmetryOrder(q patternLike) []SymmetryConstraint {
	auts := q.Automorphisms()
	var out []SymmetryConstraint
	for len(auts) > 1 {
		// Find the smallest vertex moved by any remaining automorphism.
		v := -1
		for u := 0; u < q.Size() && v < 0; u++ {
			for _, a := range auts {
				if a[u] != u {
					v = u
					break
				}
			}
		}
		if v < 0 {
			break
		}
		// Orbit of v: all images under the remaining group. Every orbit
		// member is > v (a smaller moved vertex would contradict v's
		// minimality), so each constraint points at a later level. The map
		// is only a dedup set; members accumulate in deterministic auts
		// order and are sorted, never emitted in map-iteration order.
		orbit := map[int]bool{}
		var members []int
		for _, a := range auts {
			if a[v] != v && !orbit[a[v]] {
				orbit[a[v]] = true
				members = append(members, a[v])
			}
		}
		slices.Sort(members)
		for _, u := range members {
			out = append(out, SymmetryConstraint{Lo: v, Hi: u})
		}
		// Restrict to the stabilizer of v.
		var stab [][]int
		for _, a := range auts {
			if a[v] == v {
				stab = append(stab, a)
			}
		}
		auts = stab
	}
	sortConstraints(out)
	return out
}

func sortConstraints(cs []SymmetryConstraint) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0; j-- {
			a, b := cs[j-1], cs[j]
			if a.Lo < b.Lo || (a.Lo == b.Lo && a.Hi <= b.Hi) {
				break
			}
			cs[j-1], cs[j] = b, a
		}
	}
}

// lessMatrix builds the transitive closure of "emb[a] < emb[b]" from the
// constraint list; less[a][b] == true means emb[a] < emb[b] is provable.
func lessMatrix(k int, cs []SymmetryConstraint) [][]bool {
	less := make([][]bool, k)
	for i := range less {
		less[i] = make([]bool, k)
	}
	for _, c := range cs {
		less[c.Hi][c.Lo] = true // emb[Hi] < emb[Lo]
	}
	for m := 0; m < k; m++ { // Floyd–Warshall closure
		for a := 0; a < k; a++ {
			if !less[a][m] {
				continue
			}
			for b := 0; b < k; b++ {
				if less[m][b] {
					less[a][b] = true
				}
			}
		}
	}
	return less
}

// boundsPerLevel converts constraints into per-level upper-bound lists with
// redundant (transitively implied) bounds removed: if emb[i] < emb[a] and
// emb[a] < emb[b] then the bound b at level i is implied by bound a.
func boundsPerLevel(k int, cs []SymmetryConstraint, less [][]bool) [][]int {
	raw := make([][]int, k)
	for _, c := range cs {
		raw[c.Hi] = append(raw[c.Hi], c.Lo)
	}
	out := make([][]int, k)
	for lvl, bounds := range raw {
		for _, b := range bounds {
			implied := false
			for _, a := range bounds {
				if a != b && less[a][b] {
					implied = true // a is a tighter bound than b
					break
				}
			}
			if !implied {
				out[lvl] = append(out[lvl], b)
			}
		}
		slices.Sort(out[lvl])
	}
	return out
}
