package graph

import (
	"cmp"
	"slices"
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
	})
}

var builtSink *Graph

// BenchmarkBuild times graph construction at the benchmark's store shape:
// RMAT generation plus orientation, and the symmetric form's Validate (what
// every symmetric LoadBinary pays).
func BenchmarkBuild(b *testing.B) {
	build := func() *Graph { return RMAT(15, 1<<18, 0.57, 0.19, 0.19, 0x5B) }
	b.Run("rmat-orient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			builtSink = build().Orient()
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
