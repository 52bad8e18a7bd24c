package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromEdgesDedupAndLoops(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2 (dedup + self-loop drop)", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 2) {
		t.Error("missing expected edges")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Error("unexpected edges")
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
}

func TestDegreesAndStats(t *testing.T) {
	g := MustFromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}})
	if g.Degree(0) != 4 || g.MaxDegree() != 4 {
		t.Errorf("degree(0)=%d max=%d", g.Degree(0), g.MaxDegree())
	}
	s := ComputeStats("x", g)
	if s.Vertices != 5 || s.Edges != 5 || s.MaxDegree != 4 {
		t.Errorf("stats %+v", s)
	}
	if s.AvgDegree != 2 {
		t.Errorf("avg degree %v want 2", s.AvgDegree)
	}
}

// TestOrientInvariants: orientation halves arcs, produces a DAG under the
// (degree, id) rank, and preserves connectivity queries.
func TestOrientInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		m := r.Intn(3 * n)
		var edges []Edge
		for i := 0; i < m; i++ {
			edges = append(edges, Edge{VID(r.Intn(n)), VID(r.Intn(n))})
		}
		g := MustFromEdges(n, edges)
		dag := g.Orient()
		if !dag.IsDAG() {
			return false
		}
		if dag.NumArcs() != g.NumEdges() {
			return false
		}
		if err := dag.Validate(); err != nil {
			return false
		}
		rank := func(v VID) uint64 { return uint64(g.Degree(v))<<32 | uint64(v) }
		for v := 0; v < n; v++ {
			for _, w := range dag.Adj(VID(v)) {
				if rank(VID(v)) >= rank(w) {
					return false // arc against the orientation order
				}
				if !g.HasEdge(VID(v), w) {
					return false
				}
			}
		}
		// Every undirected edge appears exactly once in the DAG.
		seen := int64(0)
		for v := 0; v < n; v++ {
			seen += int64(dag.Degree(VID(v)))
		}
		return seen == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrientIdempotent(t *testing.T) {
	g := Clique(5)
	dag := g.Orient()
	if dag.Orient() != dag {
		t.Error("Orient of a DAG should be identity")
	}
}

func TestGenerators(t *testing.T) {
	cases := map[string]*Graph{
		"er":        ErdosRenyi(50, 100, 1),
		"chunglu":   ChungLu(80, 200, 2.3, 2),
		"rmat":      RMAT(6, 150, 0.57, 0.19, 0.19, 3),
		"ring":      Ring(10, 2),
		"clique":    Clique(7),
		"bipartite": Bipartite(10, 15, 40, 4),
		"grid":      Grid(4, 6),
	}
	for name, g := range cases {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.NumVertices() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
	if Clique(7).NumEdges() != 21 {
		t.Error("K7 edge count")
	}
	if Ring(10, 2).NumEdges() != 20 {
		t.Error("ring edge count")
	}
	if Grid(4, 6).NumEdges() != int64(3*6+4*5) {
		t.Error("grid edge count")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ChungLu(100, 300, 2.3, 42)
	b := ChungLu(100, 300, 2.3, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("nondeterministic generator")
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.Adj(VID(v)), b.Adj(VID(v))
		if len(av) != len(bv) {
			t.Fatalf("vertex %d: degree differs", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("vertex %d: adjacency differs", v)
			}
		}
	}
}

func TestBipartiteHasNoOddCycles(t *testing.T) {
	g := Bipartite(20, 20, 100, 9)
	// 2-color check.
	color := make([]int, g.NumVertices())
	for i := range color {
		color[i] = -1
	}
	for s := 0; s < g.NumVertices(); s++ {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue := []VID{VID(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Adj(v) {
				if color[w] == -1 {
					color[w] = 1 - color[v]
					queue = append(queue, w)
				} else if color[w] == color[v] {
					t.Fatal("odd cycle in bipartite graph")
				}
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := ChungLu(60, 150, 2.5, 5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex count can shrink if trailing vertices are isolated; compare
	// edges via stats and spot checks.
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n0 1\n1 2\n\n2 0\n"
	g, err := ReadEdgeList(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Errorf("got |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewReader([]byte("0\n"))); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ReadEdgeList(bytes.NewReader([]byte("a b\n"))); err == nil {
		t.Error("non-numeric accepted")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		ChungLu(100, 250, 2.3, 6),
		ChungLu(100, 250, 2.3, 6).Orient(),
		MustFromEdges(1, nil),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := loadBytes(t, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() || g2.IsDAG() != g.IsDAG() {
			t.Errorf("round trip mismatch: %d/%d arcs %d/%d dag %v/%v",
				g2.NumVertices(), g.NumVertices(), g2.NumArcs(), g.NumArcs(), g2.IsDAG(), g.IsDAG())
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.Adj(VID(v)), g2.Adj(VID(v))
			if len(a) != len(b) {
				t.Fatalf("degree mismatch at %d", v)
			}
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := loadBytes(t, []byte("not a graph file at all")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestConnectedSymmetricAndDAG(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	dag := g.Orient()
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u == v {
				continue
			}
			if g.Connected(VID(u), VID(v)) != dag.Connected(VID(u), VID(v)) {
				t.Errorf("Connected(%d,%d) differs between symmetric and DAG", u, v)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}})
	g.Col[0] = 99 // out of range
	if err := g.Validate(); err == nil {
		t.Error("corrupt graph validated")
	}
}

// TestValidateRejectsAsymmetry: the one-pass reverse-arc check rejects a
// missing reverse arc, an arc its target does not list back (found from
// either end of the cursor) and an unsorted row, names the arc at fault, and
// accepts the symmetric graph and a DAG.
func TestValidateRejectsAsymmetry(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
		want string // "" = valid
	}{
		{"symmetric", &Graph{Row: []int64{0, 2, 3, 4}, Col: []VID{1, 2, 0, 0}}, ""},
		{"dag", &Graph{Row: []int64{0, 2, 2, 2}, Col: []VID{1, 2}, DAG: true}, ""},
		{"missing reverse", &Graph{Row: []int64{0, 2, 3, 3}, Col: []VID{1, 2, 0}}, "arc 0->2 missing reverse"},
		{"extra arc, cursor at end", &Graph{Row: []int64{0, 1, 2, 3}, Col: []VID{1, 0, 0}}, "arc 2->0 missing reverse"},
		{"extra arc, cursor behind", &Graph{Row: []int64{0, 0, 1, 3}, Col: []VID{2, 0, 1}}, "arc 2->0 missing reverse"},
		{"unsorted row", &Graph{Row: []int64{0, 2, 3, 4}, Col: []VID{2, 1, 0, 0}}, "not sorted"},
		{"duplicate neighbour", &Graph{Row: []int64{0, 2, 4}, Col: []VID{1, 1, 0, 0}}, "not sorted/unique"},
		{"row beyond Col", &Graph{Row: []int64{0, 10, 5}, Col: []VID{1, 1, 1, 1, 1}}, "not monotone"},
	} {
		err := c.g.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
