package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// referenceFromEdges is the sort-based builder FromEdges must equal: every
// non-loop edge as two arcs, sorted by (source, target), duplicates dropped.
func referenceFromEdges(n int, edges []Edge) *Graph {
	var arcs []Edge
	for _, e := range edges {
		if e.U != e.V {
			arcs = append(arcs, e, Edge{e.V, e.U})
		}
	}
	slices.SortFunc(arcs, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V))
	})
	arcs = slices.Compact(arcs)
	g := &Graph{Row: make([]int64, n+1), Col: make([]VID, 0, len(arcs))}
	for _, a := range arcs {
		g.Row[a.U+1]++
		g.Col = append(g.Col, a.V)
	}
	for v := 1; v <= n; v++ {
		g.Row[v] += g.Row[v-1]
	}
	g.recomputeMaxDegree()
	return g
}

// FuzzFromEdges feeds fuzzer-drawn edge lists — duplicates, self loops and
// out-of-range IDs included — to FromEdges: it must reject exactly the lists
// with an endpoint >= n (or a negative n), and otherwise build a graph that
// validates and equals the sort-based reference.
func FuzzFromEdges(f *testing.F) {
	f.Add(int8(4), []byte{0, 1, 1, 0, 0, 1, 2, 2, 1, 2})
	f.Add(int8(3), []byte{0, 5})
	f.Add(int8(-1), []byte{})
	f.Add(int8(0), []byte{})
	f.Add(int8(6), []byte{5, 0, 4, 0, 3, 0, 0, 3, 1, 1, 2, 5, 5, 2})
	f.Fuzz(func(t *testing.T, n8 int8, data []byte) {
		n := int(n8) % 40
		var edges []Edge
		valid := n >= 0
		for i := 0; i+1 < len(data); i += 2 {
			e := Edge{VID(data[i] % 48), VID(data[i+1] % 48)}
			edges = append(edges, e)
			valid = valid && int(e.U) < n && int(e.V) < n
		}
		g, err := FromEdges(n, edges)
		if !valid {
			if err == nil {
				t.Fatalf("FromEdges(%d, %v) accepted an invalid list", n, edges)
			}
			return
		}
		if err != nil {
			t.Fatalf("FromEdges(%d, %v): %v", n, edges, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("FromEdges(%d, %v): %v", n, edges, err)
		}
		want := referenceFromEdges(n, edges)
		if !slices.Equal(g.Row, want.Row) || !slices.Equal(g.Col, want.Col) || g.MaxDegree() != want.MaxDegree() || g.IsDAG() {
			t.Fatalf("FromEdges(%d, %v) = %v %v (max %d), reference %v %v (max %d)",
				n, edges, g.Row, g.Col, g.MaxDegree(), want.Row, want.Col, want.MaxDegree())
		}
		if err := degreeOrderedIsG(g); err != nil {
			t.Fatalf("FromEdges(%d, %v): %v", n, edges, err)
		}
	})
}

// degreeOrderedIsG checks g's degree-ordered copy: valid, vertex v of the copy is
// old[v] of g with its neighbours renamed, IDs ascending in (degree, ID) order,
// and the copy its own copy.
func degreeOrderedIsG(g *Graph) error {
	c, old := g.DegreeOrdered()
	if err := c.Validate(); err != nil {
		return err
	}
	n := g.NumVertices()
	if c.NumVertices() != n || c.NumArcs() != g.NumArcs() || c.MaxDegree() != g.MaxDegree() || len(old) != n {
		return fmt.Errorf("copy of %d vertices, %d arcs, max degree %d, %d old IDs", c.NumVertices(), c.NumArcs(), c.MaxDegree(), len(old))
	}
	rank := make([]VID, n)
	seen := make([]bool, n)
	for v, u := range old {
		if seen[u] {
			return fmt.Errorf("old names %d twice", u)
		}
		seen[u], rank[u] = true, VID(v)
	}
	for v, u := range old {
		if v > 0 && cmp.Or(cmp.Compare(g.Degree(old[v-1]), g.Degree(u)), cmp.Compare(old[v-1], u)) >= 0 {
			return fmt.Errorf("copy IDs %d, %d are g's %d, %d: not in (degree, ID) order", v-1, v, old[v-1], u)
		}
		var want []VID
		for _, w := range g.Adj(u) {
			want = append(want, rank[w])
		}
		if slices.Sort(want); !slices.Equal(c.Adj(VID(v)), want) {
			return fmt.Errorf("copy row %d = %v, g's row %d renamed %v", v, c.Adj(VID(v)), u, want)
		}
	}
	if cc, o := c.DegreeOrdered(); cc != c || o != nil {
		return fmt.Errorf("the copy's copy is another graph (old %v)", o)
	}
	return nil
}

// TestDegreeOrdered: the copy is g relabelled, and it is built once — concurrent
// first callers share one copy; an oriented graph has none.
func TestDegreeOrdered(t *testing.T) {
	for name, g := range map[string]*Graph{
		"rmat": RMAT(8, 1500, 0.57, 0.19, 0.19, 3), "chung-lu": ChungLu(300, 1200, 2.2, 5),
		"isolated": MustFromEdges(5, []Edge{{1, 3}}), "empty": MustFromEdges(0, nil),
	} {
		got := make([]*Graph, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _ = g.DegreeOrdered()
			}()
		}
		wg.Wait()
		if err := degreeOrderedIsG(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if c, _ := g.DegreeOrdered(); slices.ContainsFunc(got, func(x *Graph) bool { return x != c }) {
			t.Errorf("%s: concurrent first calls built more than one copy", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("DegreeOrdered of an oriented graph returned")
		}
	}()
	RMAT(6, 200, 0.57, 0.19, 0.19, 3).Orient().DegreeOrdered()
}

var builtSink *Graph

// BenchmarkBuild times graph construction at the benchmark's store shape:
// RMAT generation plus orientation, the symmetric form's degree-ordered copy
// (what the first engine that mines it pays), and its Validate (what every
// symmetric LoadBinary pays).
func BenchmarkBuild(b *testing.B) {
	build := func() *Graph { return RMAT(15, 1<<18, 0.57, 0.19, 0.19, 0x5B) }
	b.Run("rmat-orient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			builtSink = build().Orient()
		}
	})
	b.Run("degree-order", func(b *testing.B) {
		g := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh := &Graph{Row: g.Row, Col: g.Col, maxDegree: g.maxDegree} // no copy built yet
			builtSink, _ = fresh.DegreeOrdered()
		}
	})
	b.Run("validate", func(b *testing.B) {
		g := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
