package graph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ArcMemo is a heap graph's index of its edges' common-neighbour counts (DESIGN.md
// decision 29). It has one slot per stored arc: slot AdjStart(u)+i holds
// |N(u) ∩ N(Adj(u)[i])|. The graph's first ArcMemo call builds every slot
// (arcCounts), and the slots are read-only from then on, so readers need no lock.
// The index lives and dies with its graph; a graph's degree-ordered copy has its
// own. Mapped files and sharded directories have none: at 4 B per arc it is as
// large as their Col array, which they keep out of the heap.
type ArcMemo struct {
	once  sync.Once
	slots []uint32
}

// Count returns the common-neighbour count of arc a.
func (m *ArcMemo) Count(a int64) int64 { return int64(m.slots[a]) }

// Sum returns the sum of the slots [lo, hi): over a vertex's row, twice the number
// of triangles at the vertex.
func (m *ArcMemo) Sum(lo, hi int64) (s int64) {
	for _, c := range m.slots[lo:hi] {
		s += int64(c)
	}
	return s
}

// ArcMemo returns the heap graph's arc index, building it on the first call. A
// Mapped inherits the method from its Graph but is never asked: the engine finds
// the index by asserting *Graph, as it finds the degree-ordered copy. The graph
// must be symmetric.
func (g *Graph) ArcMemo() *ArcMemo {
	g.memo.once.Do(func() { g.memo.slots = g.arcCounts() })
	return &g.memo
}

// arcBlock is how many vertices a build worker claims at a time: enough to make the
// claims' cost nothing, few enough that the last claims, of the hubs at the end of a
// degree-ordered copy, spread over the workers.
const arcBlock = 16

// arcCounts counts every arc's common neighbours. Each edge is counted once, from
// its endpoint v of higher (degree, ID) rank (ranks, Orient's order): v's row is
// marked once, and the arc to each lower-ranked neighbour u counts u's row against
// the marks — a scan of the shorter row, as a c-map scan of the engine's would be.
// A vertex's counts go to its own row's slots alone, so GOMAXPROCS workers claim
// blocks of vertices and write with no lock and no atomic: the index is the
// graph's, built once for every run that reads it. Then every arc to a
// higher-ranked neighbour takes the count of its reverse, found by Validate's
// cursor pass: rows are read in ascending vertex order, so the arcs into w arrive
// in the order of w's own row. Besides the slots it allocates a byte per vertex per
// worker and two integers per vertex.
func (g *Graph) arcCounts() []uint32 {
	if g.DAG {
		panic("graph: ArcMemo of an oriented graph")
	}
	n, rank := g.NumVertices(), g.ranks()
	c := make([]uint32, len(g.Col))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mark := make([]uint8, n)
			for lo := int(next.Add(arcBlock)) - arcBlock; lo < n; lo = int(next.Add(arcBlock)) - arcBlock {
				for v := VID(lo); v < VID(min(lo+arcBlock, n)); v++ {
					row, base := g.Adj(v), g.Row[v]
					for _, x := range row {
						mark[x] = 1
					}
					for i, u := range row {
						if rank[u] < rank[v] {
							var k uint32
							for _, x := range g.Adj(u) {
								k += uint32(mark[x])
							}
							c[base+int64(i)] = k
						}
					}
					for _, x := range row {
						mark[x] = 0
					}
				}
			}
		}()
	}
	wg.Wait()
	cur := slices.Clone(g.Row[:n])
	for v := range VID(n) {
		for i, w := range g.Adj(v) {
			if rank[w] > rank[v] {
				c[g.Row[v]+int64(i)] = c[cur[w]]
			}
			cur[w]++
		}
	}
	return c
}
