package graph

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// memoGraphs are the arc index's fixtures: a windmill (every edge has one common
// neighbour), a clique (every edge n−2), a star (none), an ER and an RMAT graph,
// the complete bipartite K_{5,7} and a grid (triangle-free: every slot 0), and a
// graph whose vertices 0, 5 and 11 to 13 have no edge (empty rows at both ends and
// between the triangles).
func memoGraphs() map[string]*Graph {
	var wind, star, kab []Edge
	for i := VID(1); i < 2*12; i += 2 {
		wind = append(wind, Edge{U: 0, V: i}, Edge{U: 0, V: i + 1}, Edge{U: i, V: i + 1})
	}
	for i := VID(1); i <= 30; i++ {
		star = append(star, Edge{U: 0, V: i})
	}
	for i := VID(0); i < 5; i++ {
		for j := VID(5); j < 12; j++ {
			kab = append(kab, Edge{U: i, V: j})
		}
	}
	isolated := []Edge{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {6, 7}, {7, 8}, {6, 8}, {8, 9}, {9, 10}, {8, 10}, {4, 6}}
	return map[string]*Graph{
		"windmill": MustFromEdges(2*12+1, wind),
		"clique":   Clique(8),
		"star":     MustFromEdges(31, star),
		"er":       ErdosRenyi(120, 700, 5),
		"rmat":     RMAT(8, 1500, 0.57, 0.19, 0.19, 3),
		"k5,7":     MustFromEdges(12, kab),
		"grid":     Grid(6, 5),
		"isolated": MustFromEdges(14, isolated),
	}
}

// merged is |N(u) ∩ N(v)| by a merge of the two rows.
func merged(g *Graph, u, v VID) (c int64) {
	for p, q := g.Adj(u), g.Adj(v); len(p) > 0 && len(q) > 0; {
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
	return c
}

// checkIndex reports the first slot of m that is not its arc's merge count.
func checkIndex(g *Graph, m *ArcMemo) error {
	if int64(len(m.slots)) != g.NumArcs() {
		return fmt.Errorf("%d slots for %d arcs", len(m.slots), g.NumArcs())
	}
	for u := range VID(g.NumVertices()) {
		var row int64
		for i, v := range g.Adj(u) {
			got, want := m.Count(g.AdjStart(u)+int64(i)), merged(g, u, v)
			if got != want {
				return fmt.Errorf("arc %d→%d reads %d, a merge counts %d", u, v, got, want)
			}
			row += want
		}
		if s := m.Sum(g.AdjStart(u), g.AdjStart(u)+int64(g.Degree(u))); s != row {
			return fmt.Errorf("row %d sums to %d, its merges to %d", u, s, row)
		}
	}
	return nil
}

// TestArcMemoBuild: on every fixture, as given and degree-ordered, no index exists
// before the first ArcMemo call, which builds all of it: every slot holds its arc's
// merge count. A second call returns the same index, and the copy's is its own.
func TestArcMemoBuild(t *testing.T) {
	for name, g := range memoGraphs() {
		c, _ := g.DegreeOrdered()
		for labels, h := range map[string]*Graph{"as given": g, "degree-ordered": c} {
			if h.memo.slots != nil {
				t.Fatalf("%s %s: the index exists before any request", name, labels)
			}
			m := h.ArcMemo()
			if err := checkIndex(h, m); err != nil {
				t.Fatalf("%s %s: %v", name, labels, err)
			}
			if h.ArcMemo() != m {
				t.Fatalf("%s %s: a second index", name, labels)
			}
		}
		if c.ArcMemo() == g.ArcMemo() {
			t.Errorf("%s: the degree-ordered copy shares the graph's index", name)
		}
	}
}

// TestArcMemoConcurrentBuild: 16 goroutines ask a fresh graph for its index at
// once. Exactly one build runs: every one of them gets the same slots, the ones the
// graph keeps — a second build would allocate other slots, and CI runs the test
// under -race, which sees two builds writing one graph —, and every slot is its
// arc's merge count. The build's workers end with it: the goroutine count falls
// back to its baseline (within 2 s).
func TestArcMemoConcurrentBuild(t *testing.T) {
	before := runtime.NumGoroutine()
	for name, g := range memoGraphs() {
		var wg sync.WaitGroup
		start := make(chan struct{})
		got := make([]*uint32, 16)
		errs := make(chan error, 16)
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				m := g.ArcMemo()
				got[k] = unsafe.SliceData(m.slots)
				if err := checkIndex(g, m); err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", k, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", name, err)
		}
		for k, p := range got {
			if p != unsafe.SliceData(g.memo.slots) {
				t.Errorf("%s: goroutine %d read slots the graph does not keep: more than one build", name, k)
			}
		}
	}
	for i := 0; i < 400 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before the builds, %d after", before, after)
	}
}

// FuzzArcMemo: the index of a small graph, as given and degree-ordered, is every
// arc's merge count. Each byte pair is an edge of up to 24 vertices.
func FuzzArcMemo(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 2, 2, 3})
	f.Add([]byte{})
	f.Add([]byte{5, 6, 6, 7, 5, 7, 7, 8, 5, 8, 6, 8, 0, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		var edges []Edge
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{VID(data[i] % 24), VID(data[i+1] % 24)})
		}
		g := MustFromEdges(24, edges)
		c, _ := g.DegreeOrdered()
		for _, h := range []*Graph{g, c} {
			if err := checkIndex(h, h.ArcMemo()); err != nil {
				t.Fatalf("%v: %v", edges, err)
			}
		}
	})
}
