package graph

import (
	"sync"
	"sync/atomic"
)

// ArcMemo is a heap graph's memo of its edges' common-neighbour counts (DESIGN.md
// decision 29). It has one slot per stored arc: slot AdjStart(u)+i belongs to the
// arc from u to Adj(u)[i] and holds 0 until it is filled, then
// 1 + |N(u) ∩ N(Adj(u)[i])|. The slots are allocated by the graph's first ArcMemo
// call and filled lazily by whoever reads a slot empty; a fill writes the one
// value the arc has, so readers that race on a slot store the same number and
// need no lock. The memo lives and dies with its graph; a graph's degree-ordered
// copy has its own. Mapped files and sharded directories have none: at 4 B per
// arc it is as large as their Col array, which they keep out of the heap.
type ArcMemo struct {
	once  sync.Once
	slots []atomic.Uint32
}

// Lookup returns the common-neighbour count of arc a, and whether the slot has
// been filled.
func (m *ArcMemo) Lookup(a int64) (int64, bool) {
	x := m.slots[a].Load()
	return int64(x) - 1, x != 0
}

// Fill records c as the common-neighbour count of arc a. No count reaches
// 2³² − 1: it is below the degree of both endpoints.
func (m *ArcMemo) Fill(a int64, c int64) { m.slots[a].Store(uint32(c) + 1) }

// ArcMemo returns the heap graph's arc memo, allocating it on the first call. A
// Mapped inherits the method from its Graph but is never asked: the engine finds
// the memo by asserting *Graph, as it finds the degree-ordered copy.
func (g *Graph) ArcMemo() *ArcMemo {
	g.memo.once.Do(func() { g.memo.slots = make([]atomic.Uint32, len(g.Col)) })
	return &g.memo
}
