package graph

// Synthetic graph generators. The paper evaluates on six SNAP/real graphs we
// cannot ship; these generators produce deterministic stand-ins with matched
// shape (power-law degrees, density) per the substitution table in DESIGN.md.

import (
	"math"
)

// rng is a small deterministic SplitMix64 generator so graph construction is
// reproducible across platforms without pulling in math/rand's global state.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float64v returns a uniform float in [0, 1).
func (r *rng) float64v() float64 { return float64(r.next()>>11) / (1 << 53) }

// ErdosRenyi generates a G(n, m) random simple graph with exactly up to m
// distinct undirected edges (duplicates and self loops are merged away, so the
// realized edge count can be slightly below m on dense requests).
func ErdosRenyi(n, m int, seed uint64) *Graph {
	r := newRNG(seed)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := VID(r.intn(n))
		v := VID(r.intn(n))
		edges = append(edges, Edge{u, v})
	}
	return MustFromEdges(n, edges)
}

// ChungLu generates a power-law graph: rank i carries expected weight
// proportional to (i+1)^(-1/(beta-1)) for exponent beta (typically 2..3),
// and m edge samples are drawn with probability proportional to weight
// products, yielding the heavy-tailed degree distributions of the paper's
// datasets (rare high-degree hubs, many low-degree vertices).
//
// Ranks are mapped to vertex IDs through a deterministic random permutation:
// real graphs have no degree/ID correlation, and the ID-comparison symmetry
// orders (v1 < v0, …) would otherwise interact with degree systematically.
func ChungLu(n, m int, beta float64, seed uint64) *Graph {
	r := newRNG(seed)
	perm := make([]VID, n)
	for i := range perm {
		perm[i] = VID(i)
	}
	for i := n - 1; i > 0; i-- { // Fisher–Yates
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Cumulative weight table for inverse-transform sampling.
	cum := make([]float64, n+1)
	exp := -1.0 / (beta - 1.0)
	for v := 0; v < n; v++ {
		cum[v+1] = cum[v] + math.Pow(float64(v+1), exp)
	}
	total := cum[n]
	sample := func() VID {
		x := r.float64v() * total
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return VID(lo)
	}
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{perm[sample()], perm[sample()]})
	}
	return MustFromEdges(n, edges)
}

// RMAT generates a recursive-matrix (Kronecker-like) graph with 2^scale
// vertices and m sampled edges using the standard (a,b,c,d) quadrant
// probabilities. R-MAT graphs exhibit power-law degrees and community
// structure, similar to the social-network datasets in Table I.
//
// Each quadrant is picked on integers: with k = next()>>11, float64v() < t is
// exactly k < ⌈t·2⁵³⌉, because float64v() is k/2⁵³ without rounding. The
// thresholds are made monotone, as the first-match order of the quadrants
// makes them, so each bit is set from three comparisons without a branch.
func RMAT(scale int, m int, a, b, c float64, seed uint64) *Graph {
	r := newRNG(seed)
	n := 1 << scale
	ta := threshold(a)
	tb := max(ta, threshold(a+b))
	tc := max(tb, threshold(a+b+c))
	// Kept minus one: (t-1-k)>>63 is 1 exactly when k >= t, since neither
	// exceeds 2⁵³ (t = 0 wraps to all ones, and every k is >= 0).
	ta, tb, tc = ta-1, tb-1, tc-1
	edges := make([]Edge, 0, m)
	for range m {
		var u, v uint64
		for bit := range uint(scale) {
			k := r.next() >> 11
			gb := (tb - k) >> 63
			u |= gb << (bit & 63)
			v |= ((ta-k)>>63 ^ gb ^ (tc-k)>>63) << (bit & 63)
		}
		edges = append(edges, Edge{VID(u), VID(v)})
	}
	return MustFromEdges(n, edges)
}

// threshold returns ⌈t·2⁵³⌉ clamped to [0, 2⁵³]: the integers k < 2⁵³ below
// it are exactly those with k/2⁵³ < t.
func threshold(t float64) uint64 {
	if !(t > 0) { // NaN compares false, as it does in float64v() < t
		return 0
	}
	return uint64(math.Ceil(min(t, 1) * (1 << 53)))
}

// Ring generates a ring lattice where each vertex connects to its k nearest
// successors; useful as a regular, low-degree stress case.
func Ring(n, k int) *Graph {
	edges := make([]Edge, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			edges = append(edges, Edge{VID(v), VID((v + j) % n)})
		}
	}
	return MustFromEdges(n, edges)
}

// Clique generates the complete graph K_n; its pattern counts have closed
// forms, which the test suite exploits.
func Clique(n int) *Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{VID(u), VID(v)})
		}
	}
	return MustFromEdges(n, edges)
}

// Bipartite generates a random bipartite graph with sides of size l and r and
// m sampled cross edges. Bipartite graphs contain no odd cycles (no
// triangles), making 4-cycle workloads pure — the shape behind the fraudrings
// example.
func Bipartite(l, r, m int, seed uint64) *Graph {
	rg := newRNG(seed)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := VID(rg.intn(l))
		v := VID(l + rg.intn(r))
		edges = append(edges, Edge{u, v})
	}
	return MustFromEdges(l+r, edges)
}

// Grid generates an x-by-y 2D mesh; planar, triangle-free, rich in 4-cycles.
func Grid(x, y int) *Graph {
	id := func(i, j int) VID { return VID(i*y + j) }
	var edges []Edge
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			if i+1 < x {
				edges = append(edges, Edge{id(i, j), id(i+1, j)})
			}
			if j+1 < y {
				edges = append(edges, Edge{id(i, j), id(i, j+1)})
			}
		}
	}
	return MustFromEdges(x*y, edges)
}
