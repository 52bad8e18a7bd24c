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
	"slices"
	"sort"
	"sync"
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

	// ranked is DegreeOrdered's copy of the graph, built on the first call and
	// freed with the graph.
	ranked struct {
		once sync.Once
		g    *Graph
		old  []VID
	}

	memo ArcMemo // its slots built by the first ArcMemo call
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
//
// The build is linear and comparison-free: the arcs are scattered into their
// sources' rows, then one transpose pass reads the rows in vertex order and
// appends v to the row of every u it lists. The arcs are symmetric, so each
// row receives exactly its own neighbours, in ascending order, and merging
// duplicates is a scan for equal neighbours.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	row := make([]int64, n+1)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		if e.U != e.V { // self loops are dropped
			row[e.U+1]++
			row[e.V+1]++
		}
	}
	for i := 1; i <= n; i++ {
		row[i] += row[i-1]
	}
	next := slices.Clone(row[:n])
	arcs := make([]VID, row[n])
	for _, e := range edges {
		if e.U != e.V {
			arcs[next[e.U]] = e.V
			next[e.U]++
			arcs[next[e.V]] = e.U
			next[e.V]++
		}
	}
	g := &Graph{Row: row, Col: transpose(row, arcs)}
	g.dedup()
	return g, nil
}

// transpose returns the column array of symmetric arcs given as rows
// arcs[row[v]:row[v+1]] in any order: one pass reads the rows in vertex order
// and appends v to the row of every u it lists, so each row comes out ascending.
func transpose(row []int64, arcs []VID) []VID {
	n := len(row) - 1
	next := slices.Clone(row[:n])
	col := make([]VID, row[n])
	for v := 0; v < n; v++ {
		for _, u := range arcs[row[v]:row[v+1]] {
			col[next[u]] = VID(v)
			next[u]++
		}
	}
	return col
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

// dedup removes repeated neighbours from each (sorted) adjacency list,
// compacting storage in place, and records the maximum degree.
func (g *Graph) dedup() {
	n := g.NumVertices()
	out, start := int64(0), int64(0)
	for v := 0; v < n; v++ {
		end := g.Row[v+1]
		g.Row[v] = out
		for _, w := range g.Col[start:end] {
			if out == g.Row[v] || g.Col[out-1] != w {
				g.Col[out] = w
				out++
			}
		}
		g.maxDegree = max(g.maxDegree, int(out-g.Row[v]))
		start = end
	}
	g.Row[n] = out
	g.Col = g.Col[:out]
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
// symmetry-order checking is needed for k-clique mining. Each row is filtered
// in order from a sorted row, so it is sorted too.
func (g *Graph) Orient() *Graph {
	if g.DAG {
		return g
	}
	n, rank := g.NumVertices(), g.ranks()
	row := make([]int64, n+1)
	for v := 0; v < n; v++ {
		row[v+1] = row[v]
		for _, w := range g.Adj(VID(v)) {
			if rank[v] < rank[w] {
				row[v+1]++
			}
		}
	}
	col := make([]VID, 0, row[n])
	for v := 0; v < n; v++ {
		for _, w := range g.Adj(VID(v)) {
			if rank[v] < rank[w] {
				col = append(col, w)
			}
		}
	}
	out := &Graph{Row: row, Col: col, DAG: true}
	out.recomputeMaxDegree()
	return out
}

// ranks returns each vertex's position in ascending (degree, ID) order: a
// counting sort on degree that takes the vertices in ID order.
func (g *Graph) ranks() []VID {
	n := g.NumVertices()
	at := make([]int64, n+1) // at[d]: the next position of degree d
	for v := 0; v < n; v++ {
		at[g.Degree(VID(v))+1]++
	}
	for d := 1; d <= n; d++ {
		at[d] += at[d-1]
	}
	rank := make([]VID, n)
	for v := range rank {
		d := g.Degree(VID(v))
		rank[v] = VID(at[d])
		at[d]++
	}
	return rank
}

// DegreeOrdered returns the symmetric graph g with its vertex IDs renumbered in
// Orient's (degree, ID) order, and old: old[v] is the ID in g of the copy's
// vertex v. The copy is built on the first call, linearly — its rows are g's,
// relabelled, put in order by FromEdges' transpose — and kept with g; on the
// copy itself DegreeOrdered returns the copy and a nil old.
func (g *Graph) DegreeOrdered() (*Graph, []VID) {
	g.ranked.once.Do(func() {
		if g.DAG {
			panic("graph: DegreeOrdered of an oriented graph")
		}
		n, rank := g.NumVertices(), g.ranks()
		old := make([]VID, n)
		for v, r := range rank {
			old[r] = VID(v)
		}
		row := make([]int64, n+1)
		for r, v := range old {
			row[r+1] = row[r] + int64(g.Degree(v))
		}
		arcs := make([]VID, row[n])
		for r, v := range old {
			for i, w := range g.Adj(v) {
				arcs[row[r]+int64(i)] = rank[w]
			}
		}
		c := &Graph{Row: row, Col: transpose(row, arcs)}
		c.recomputeMaxDegree()
		c.ranked.once.Do(func() { c.ranked.g = c })
		g.ranked.g, g.ranked.old = c, old
	})
	return g.ranked.g, g.ranked.old
}

// Validate checks structural invariants: monotone Row, sorted unique
// neighbor lists, no self loops, in-range IDs, and (for symmetric graphs)
// that every arc has its reverse.
//
// The reverse check is one cursor pass: rows are read in ascending vertex
// order, so in a symmetric graph the arcs into w arrive in the order of w's
// own sorted row, and cur[w] steps through that row one match at a time.
// Every arc consumes one entry, so when the pass succeeds every cursor has
// reached the end of its row.
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
	}
	var cur []int64
	if !g.DAG {
		cur = slices.Clone(g.Row[:n])
	}
	for v := 0; v < n; v++ {
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
			if cur == nil {
				continue
			}
			if c := cur[w]; c < g.Row[w+1] && g.Col[c] < VID(v) {
				return fmt.Errorf("graph: arc %d->%d missing reverse", w, g.Col[c])
			} else if c == g.Row[w+1] || g.Col[c] != VID(v) {
				return fmt.Errorf("graph: arc %d->%d missing reverse", v, w)
			}
			cur[w]++
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
