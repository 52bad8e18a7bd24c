package graph

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// memoGraphs are the arc memo's fixtures: a windmill (every edge has one common
// neighbour but the hub's, which have one each too), a clique (every edge n−2),
// a star (none), and an ER and an RMAT graph.
func memoGraphs() map[string]*Graph {
	var wind, star []Edge
	for i := VID(1); i < 2*12; i += 2 {
		wind = append(wind, Edge{U: 0, V: i}, Edge{U: 0, V: i + 1}, Edge{U: i, V: i + 1})
	}
	for i := VID(1); i <= 30; i++ {
		star = append(star, Edge{U: 0, V: i})
	}
	return map[string]*Graph{
		"windmill": MustFromEdges(2*12+1, wind),
		"clique":   Clique(8),
		"star":     MustFromEdges(31, star),
		"er":       ErdosRenyi(120, 700, 5),
		"rmat":     RMAT(8, 1500, 0.57, 0.19, 0.19, 3),
	}
}

// common is |N(u) ∩ N(v)| by a membership test of each vertex of the graph.
func common(g *Graph, u, v VID) (n int64) {
	for x := range VID(g.NumVertices()) {
		if g.HasEdge(u, x) && g.HasEdge(v, x) {
			n++
		}
	}
	return n
}

// fill reads the arc from u to Adj(u)[i] from g's memo, and on a miss counts it
// with a merge of the two rows and fills it in — what a mining worker does with
// its own kernel.
func fill(g *Graph, u VID, i int) int64 {
	m, a := g.ArcMemo(), g.AdjStart(u)+int64(i)
	if c, ok := m.Lookup(a); ok {
		return c
	}
	var c int64
	for p, q := g.Adj(u), g.Adj(g.Adj(u)[i]); len(p) > 0 && len(q) > 0; {
		switch {
		case p[0] < q[0]:
			p = p[1:]
		case p[0] > q[0]:
			q = q[1:]
		default:
			c++
			p, q = p[1:], q[1:]
		}
	}
	m.Fill(a, c)
	return c
}

// TestArcMemoFills: on every fixture, and on its degree-ordered copy, the memo is
// allocated by the first ArcMemo call, one slot per arc, all empty; a filled slot
// holds the brute-force |N(u) ∩ N(v)| of its arc, read back in both directions;
// and the copy's memo is its own.
func TestArcMemoFills(t *testing.T) {
	for name, g := range memoGraphs() {
		if g.memo.slots != nil {
			t.Fatalf("%s: the memo exists before any read", name)
		}
		c, _ := g.DegreeOrdered()
		for labels, h := range map[string]*Graph{"as given": g, "degree-ordered": c} {
			m := h.ArcMemo()
			if h.ArcMemo() != m || int64(len(m.slots)) != h.NumArcs() {
				t.Fatalf("%s %s: %d slots for %d arcs, or a second memo", name, labels, len(m.slots), h.NumArcs())
			}
			for a := range m.slots {
				if _, ok := m.Lookup(int64(a)); ok {
					t.Fatalf("%s %s: slot %d filled before any fill", name, labels, a)
				}
			}
			for u := range VID(h.NumVertices()) {
				for i, v := range h.Adj(u) {
					if got, want := fill(h, u, i), common(h, u, v); got != want {
						t.Fatalf("%s %s: arc %d→%d filled with %d, brute force %d", name, labels, u, v, got, want)
					}
				}
			}
			for u := range VID(h.NumVertices()) {
				for i, v := range h.Adj(u) {
					j := slices.Index(h.Adj(v), u)
					got, ok := m.Lookup(h.AdjStart(u) + int64(i))
					back, okBack := m.Lookup(h.AdjStart(v) + int64(j))
					if want := common(h, u, v); !ok || !okBack || got != want || back != want {
						t.Fatalf("%s %s: arc %d→%d reads %d (%v), %d→%d %d (%v); want %d both ways", name, labels, u, v, got, ok, v, u, back, okBack, want)
					}
				}
			}
		}
		if c.ArcMemo() == g.ArcMemo() {
			t.Errorf("%s: the degree-ordered copy shares the graph's memo", name)
		}
	}
}

// TestArcMemoConcurrentFills: 16 goroutines fill one graph's memo at once, each
// walking the arcs from its own starting vertex, and every one reads the
// brute-force count of every arc. CI runs it under -race: fills of one slot race
// by design, and must store one value through the typed atomics.
func TestArcMemoConcurrentFills(t *testing.T) {
	for name, g := range memoGraphs() {
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for k := range 16 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := g.NumVertices()
				for off := range n {
					u := VID((off + k*n/16) % n)
					for i, v := range g.Adj(u) {
						if got, want := fill(g, u, i), common(g, u, v); got != want {
							errs <- fmt.Errorf("goroutine %d: arc %d→%d reads %d, brute force %d", k, u, v, got, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", name, err)
		}
	}
}
