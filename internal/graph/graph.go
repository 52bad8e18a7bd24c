// Package graph provides the compressed-sparse-row (CSR) graph substrate used
// by every other FlexMiner component: the compiler, the CPU mining engines and
// the accelerator simulator.
//
// Graphs are simple, undirected and stored symmetrically unless they have been
// oriented into a DAG (see Orient). The neighbor list of each vertex is sorted
// by ascending vertex ID, which the merge-based set operations and the
// symmetry-order pruning both rely on.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// VID is a vertex identifier. The paper's hardware uses 32-bit keys in the
// c-map; we mirror that width.
type VID = uint32

// Graph is an immutable CSR adjacency structure.
//
// For vertex v, the neighbor list is Col[Row[v]:Row[v+1]], sorted ascending.
// A symmetric Graph stores each undirected edge {u,v} twice (u→v and v→u);
// an oriented Graph (IsDAG) stores it once, from the lower-ranked endpoint to
// the higher-ranked one.
type Graph struct {
	Row []int64 // len = NumVertices()+1
	Col []VID   // len = Row[NumVertices()]

	// DAG records that the graph was produced by Orient and each edge
	// appears exactly once; read it through the IsDAG method, which is the
	// Store-interface spelling.
	DAG bool

	maxDegree int
}

// IsDAG reports whether the graph was produced by Orient.
func (g *Graph) IsDAG() bool { return g.DAG }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.Row) - 1 }

// NumEdges returns the number of undirected edges |E| for a symmetric graph,
// or the number of stored arcs for an oriented DAG.
func (g *Graph) NumEdges() int64 {
	if g.DAG {
		return int64(len(g.Col))
	}
	return int64(len(g.Col)) / 2
}

// NumArcs returns the number of stored directed arcs, i.e. len(Col).
func (g *Graph) NumArcs() int64 { return int64(len(g.Col)) }

// Degree returns the out-degree of v (the full degree for symmetric graphs).
func (g *Graph) Degree(v VID) int { return int(g.Row[v+1] - g.Row[v]) }

// MaxDegree returns the maximum degree over all vertices.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// AvgDegree returns the mean number of stored neighbors per vertex.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(len(g.Col)) / float64(g.NumVertices())
}

// Adj returns the sorted neighbor list of v. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Adj(v VID) []VID { return g.Col[g.Row[v]:g.Row[v+1]] }

// AdjStart returns the byte-addressable element offset of v's neighbor list
// within Col. The simulator uses it to derive memory addresses.
func (g *Graph) AdjStart(v VID) int64 { return g.Row[v] }

// HasEdge reports whether the arc u→v is stored, using binary search over the
// sorted neighbor list of u.
func (g *Graph) HasEdge(u, v VID) bool {
	adj := g.Adj(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Connected reports whether u and v are adjacent in either direction. For a
// symmetric graph this equals HasEdge(u, v); for a DAG it checks both arcs.
func (g *Graph) Connected(u, v VID) bool {
	if g.Degree(u) <= g.Degree(v) {
		if g.HasEdge(u, v) {
			return true
		}
	} else if g.HasEdge(v, u) {
		return true
	}
	if g.DAG {
		if g.Degree(u) <= g.Degree(v) {
			return g.HasEdge(v, u)
		}
		return g.HasEdge(u, v)
	}
	return false
}

// Edge is an undirected edge used by builders and loaders.
type Edge struct{ U, V VID }

// FromEdges builds a simple symmetric CSR graph from an edge list.
//
// Self loops are dropped and duplicate edges are merged, matching the paper's
// input preparation ("symmetric, no self-loops, no duplicated edges"). n is
// the number of vertices; every endpoint must be < n.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	deg := make([]int64, n+1)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		if e.U == e.V {
			continue // self loop
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	row := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		row[i] = row[i-1] + deg[i]
	}
	col := make([]VID, row[n])
	next := make([]int64, n)
	copy(next, row[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		col[next[e.U]] = e.V
		next[e.U]++
		col[next[e.V]] = e.U
		next[e.V]++
	}
	g := &Graph{Row: row, Col: col}
	g.sortAndDedup()
	return g, nil
}

// MustFromEdges is FromEdges but panics on error; for tests and examples with
// known-good inputs.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sortAndDedup sorts each adjacency list and removes duplicate neighbors,
// compacting storage in place.
func (g *Graph) sortAndDedup() {
	n := g.NumVertices()
	newRow := make([]int64, n+1)
	out := int64(0)
	for v := 0; v < n; v++ {
		adj := g.Col[g.Row[v]:g.Row[v+1]]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		start := out
		var last VID
		first := true
		for _, w := range adj {
			if !first && w == last {
				continue
			}
			g.Col[out] = w
			out++
			last, first = w, false
		}
		newRow[v] = start
	}
	newRow[n] = out
	// Shift row starts: newRow currently holds starts; rebuild prefix form.
	row := make([]int64, n+1)
	copy(row, newRow)
	g.Row = row
	g.Col = g.Col[:out]
	g.recomputeMaxDegree()
}

func (g *Graph) recomputeMaxDegree() {
	g.maxDegree = 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VID(v)); d > g.maxDegree {
			g.maxDegree = d
		}
	}
}

// Orient converts a symmetric graph into a DAG using the degree-ordering
// technique of §V-C: each undirected edge is kept only as an arc from the
// endpoint with smaller (degree, ID) to the larger. After orientation no
// symmetry-order checking is needed for k-clique mining.
func (g *Graph) Orient() *Graph {
	if g.DAG {
		return g
	}
	n := g.NumVertices()
	rank := func(v VID) uint64 {
		// degree-major, ID-minor rank; ties broken by vertex ID.
		return uint64(g.Degree(v))<<32 | uint64(v)
	}
	deg := make([]int64, n+1)
	for v := 0; v < n; v++ {
		rv := rank(VID(v))
		for _, w := range g.Adj(VID(v)) {
			if rv < rank(w) {
				deg[v+1]++
			}
		}
	}
	row := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		row[i] = row[i-1] + deg[i]
	}
	col := make([]VID, row[n])
	next := make([]int64, n)
	copy(next, row[:n])
	for v := 0; v < n; v++ {
		rv := rank(VID(v))
		for _, w := range g.Adj(VID(v)) {
			if rv < rank(w) {
				col[next[v]] = w
				next[v]++
			}
		}
	}
	out := &Graph{Row: row, Col: col, DAG: true}
	// Adjacency of the source graph was sorted; arcs to higher-ranked
	// vertices preserve ID order only within, so re-sort to be safe.
	for v := 0; v < n; v++ {
		adj := out.Col[out.Row[v]:out.Row[v+1]]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
	}
	out.recomputeMaxDegree()
	return out
}

// Validate checks structural invariants: monotone Row, sorted unique
// neighbor lists, no self loops, in-range IDs, and (for symmetric graphs)
// that every arc has its reverse.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.Row) == 0 {
		return errors.New("graph: empty Row")
	}
	if g.Row[0] != 0 || g.Row[n] != int64(len(g.Col)) {
		return errors.New("graph: Row endpoints inconsistent with Col")
	}
	for v := 0; v < n; v++ {
		if g.Row[v] > g.Row[v+1] {
			return fmt.Errorf("graph: Row not monotone at %d", v)
		}
		adj := g.Adj(VID(v))
		for i, w := range adj {
			if int(w) >= n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			if w == VID(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not sorted/unique", v)
			}
			if !g.DAG && !g.HasEdge(w, VID(v)) {
				return fmt.Errorf("graph: arc %d->%d missing reverse", v, w)
			}
		}
	}
	return nil
}

// Stats summarizes a graph for Table I style reporting.
type Stats struct {
	Name      string
	Vertices  int
	Edges     int64
	MaxDegree int
	AvgDegree float64
}

// ComputeStats returns the Table I statistics for g under the given name; it
// works for any storage backend.
func ComputeStats(name string, g Store) Stats {
	return Stats{
		Name:      name,
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		MaxDegree: g.MaxDegree(),
		AvgDegree: g.AvgDegree(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%-8s |V|=%-9d |E|=%-10d dmax=%-6d davg=%.1f",
		s.Name, s.Vertices, s.Edges, s.MaxDegree, s.AvgDegree)
}
