package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCatalogShapes(t *testing.T) {
	cases := []struct {
		p        *Pattern
		k, edges int
		auts     int
	}{
		{Triangle(), 3, 3, 6},
		{Wedge(), 3, 2, 2},
		{FourCycle(), 4, 4, 8},
		{Diamond(), 4, 5, 4},
		{TailedTriangle(), 4, 4, 2},
		{KClique(4), 4, 6, 24},
		{KClique(5), 5, 10, 120},
		{KPath(4), 4, 3, 2},
		{KStar(4), 4, 3, 6},
		{KCycle(5), 5, 5, 10},
		{House(), 5, 6, 2},
	}
	for _, c := range cases {
		if c.p.Size() != c.k {
			t.Errorf("%s: size %d want %d", c.p.Name(), c.p.Size(), c.k)
		}
		if c.p.NumEdges() != c.edges {
			t.Errorf("%s: edges %d want %d", c.p.Name(), c.p.NumEdges(), c.edges)
		}
		if got := c.p.AutomorphismCount(); got != c.auts {
			t.Errorf("%s: |Aut| = %d want %d", c.p.Name(), got, c.auts)
		}
		if !c.p.IsConnected() {
			t.Errorf("%s: not connected", c.p.Name())
		}
	}
}

func TestIsCliqueAndConnected(t *testing.T) {
	if !KClique(4).IsClique() || Diamond().IsClique() {
		t.Error("IsClique wrong")
	}
	disc := New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	if disc.IsConnected() {
		t.Error("disconnected pattern reported connected")
	}
	if !New(1).IsConnected() {
		t.Error("single vertex must be connected")
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	p := Diamond()
	q := p.Relabel([]int{3, 2, 1, 0})
	if !p.IsIsomorphic(q) {
		t.Error("relabel broke isomorphism")
	}
	if p.NumEdges() != q.NumEdges() {
		t.Error("relabel changed edge count")
	}
}

func TestIsomorphismBasics(t *testing.T) {
	if !FourCycle().IsIsomorphic(FromEdges(4, [][2]int{{0, 2}, {2, 1}, {1, 3}, {3, 0}})) {
		t.Error("relabeled 4-cycle not isomorphic")
	}
	if FourCycle().IsIsomorphic(Diamond()) {
		t.Error("4-cycle ≅ diamond?")
	}
	if KPath(4).IsIsomorphic(KStar(4)) {
		t.Error("path ≅ star?")
	}
}

// TestCanonicalCodeIsoInvariant: isomorphic iff equal canonical codes, under
// random relabelings.
func TestCanonicalCodeIsoInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		p := New(k)
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if r.Intn(2) == 0 {
					p.AddEdge(u, v)
				}
			}
		}
		perm := r.Perm(k)
		q := p.Relabel(perm)
		return p.CanonicalCode() == q.CanonicalCode()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalCodeSeparates(t *testing.T) {
	distinct := []*Pattern{Wedge(), Triangle(), KPath(4), KStar(4), FourCycle(), TailedTriangle(), Diamond(), KClique(4)}
	seen := map[uint64]string{}
	for _, p := range distinct {
		code := p.CanonicalCode()
		if other, ok := seen[code]; ok {
			t.Errorf("%s and %s share a canonical code", p.Name(), other)
		}
		seen[code] = p.Name()
	}
}

func TestMotifsCounts(t *testing.T) {
	// Known counts of connected k-vertex graphs up to isomorphism.
	want := map[int]int{2: 1, 3: 2, 4: 6, 5: 21}
	for k, n := range want {
		ms := Motifs(k)
		if len(ms) != n {
			t.Errorf("Motifs(%d) = %d patterns, want %d", k, len(ms), n)
		}
		for i, m := range ms {
			if m.Size() != k || !m.IsConnected() {
				t.Errorf("Motifs(%d)[%d] malformed: %s", k, i, m)
			}
			for j := 0; j < i; j++ {
				if ms[j].IsIsomorphic(m) {
					t.Errorf("Motifs(%d): %d and %d isomorphic", k, j, i)
				}
			}
		}
	}
}

func TestMotifNames(t *testing.T) {
	ms := Motifs(3)
	if ms[0].Name() != "wedge" && ms[1].Name() != "wedge" {
		t.Error("3-motifs missing wedge name")
	}
	found := map[string]bool{}
	for _, m := range Motifs(4) {
		found[m.Name()] = true
	}
	for _, name := range []string{"4-path", "4-star", "4-cycle", "tailed-triangle", "diamond", "4-clique"} {
		if !found[name] {
			t.Errorf("4-motifs missing %s (have %v)", name, found)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"triangle", "wedge", "diamond", "tailed-triangle", "house",
		"4-cycle", "5-clique", "6-path", "4-star"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	for _, bad := range []string{"heptagon", "2-cycle", "99-clique", "", "4-cycle x", "4-cyclefoo", "4-"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}

func TestAutomorphismsAreAutomorphisms(t *testing.T) {
	for _, p := range []*Pattern{Triangle(), FourCycle(), Diamond(), TailedTriangle(), House()} {
		for _, a := range p.Automorphisms() {
			q := p.Relabel(a)
			if !p.Equal(q) {
				t.Errorf("%s: %v is not an automorphism", p.Name(), a)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	p := Diamond()
	q := FromEdges(p.Size(), p.Edges())
	if !p.Equal(q) {
		t.Error("Edges/FromEdges round trip failed")
	}
}

func TestDegreeAndAdjMask(t *testing.T) {
	p := TailedTriangle() // edges 01 02 12 23
	wantDeg := []int{2, 2, 3, 1}
	for v, d := range wantDeg {
		if p.Degree(v) != d {
			t.Errorf("degree(%d) = %d want %d", v, p.Degree(v), d)
		}
	}
	if p.AdjMask(3) != 1<<2 {
		t.Errorf("AdjMask(3) = %b", p.AdjMask(3))
	}
}

func TestBadConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self loop accepted")
		}
	}()
	p := New(3)
	p.AddEdge(1, 1)
}

func TestStringOutput(t *testing.T) {
	s := Triangle().String()
	if s != "triangle{0-1 0-2 1-2}" {
		t.Errorf("String() = %q", s)
	}
}
