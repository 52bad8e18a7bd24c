package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// testGraphs returns a diverse set of small graphs with known structure.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	gs := map[string]*graph.Graph{
		"k6":        graph.Clique(6),
		"ring12":    graph.Ring(12, 2),
		"grid4x5":   graph.Grid(4, 5),
		"er40":      graph.ErdosRenyi(40, 120, 1),
		"er30dense": graph.ErdosRenyi(30, 200, 2),
		"cl50":      graph.ChungLu(50, 180, 2.3, 3),
		"bip":       graph.Bipartite(12, 12, 60, 4),
		"petersen": graph.MustFromEdges(10, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
			{U: 5, V: 7}, {U: 7, V: 9}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5},
			{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}, {U: 4, V: 9},
		}),
	}
	for name, g := range gs {
		if err := g.Validate(); err != nil {
			tb.Fatalf("graph %s invalid: %v", name, err)
		}
	}
	return gs
}

func testPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.KClique(2).WithName("edge"),
		pattern.Triangle(),
		pattern.Wedge(),
		pattern.FourCycle(),
		pattern.Diamond(),
		pattern.TailedTriangle(),
		pattern.KClique(4),
		pattern.KPath(4),
		pattern.KStar(4),
		pattern.KCycle(5),
		pattern.House(),
		pattern.KClique(5),
	}
}

// TestEngineMatchesBruteForce is the central correctness test: for every
// (pattern, graph, semantics) triple, the plan-driven engine must equal the
// brute-force reference.
func TestEngineMatchesBruteForce(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, p := range testPatterns() {
			for _, induced := range []bool{false, true} {
				pl, err := plan.Compile(p, plan.Options{Induced: induced})
				if err != nil {
					t.Fatalf("%s: compile: %v", p.Name(), err)
				}
				got, err := Mine(g, pl, Options{Threads: 4})
				if err != nil {
					t.Fatalf("%s on %s: %v", p.Name(), gname, err)
				}
				want := BruteCount(g, p, induced)
				if got.Count() != want {
					t.Errorf("%s on %s (induced=%v): engine=%d brute=%d\nplan:\n%s",
						p.Name(), gname, induced, got.Count(), want, pl)
				}
			}
		}
	}
}

// TestCliqueDAGPath cross-checks the orientation-based clique plan against
// the generic symmetric plan and closed forms on K_n.
func TestCliqueDAGPath(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for k := 3; k <= 5; k++ {
			res, _ := mineApp(t, g, fmt.Sprintf("%d-CL", k), Options{Threads: 3})
			dag := res.Count()
			gen := mustMine(t, g, mustCompile(t, pattern.KClique(k), plan.Options{}), Options{Threads: 3}).Count()
			if dag != gen {
				t.Errorf("%d-CL on %s: DAG=%d generic=%d", k, gname, dag, gen)
			}
		}
	}
	// K_6: C(6,k) cliques of size k.
	k6 := graph.Clique(6)
	for k, want := range map[int]int64{3: 20, 4: 15, 5: 6, 6: 1} {
		if got, _ := mineApp(t, k6, fmt.Sprintf("%d-CL", k), Options{}); got.Count() != want {
			t.Errorf("%d-CL on K6: got %d want %d", k, got.Count(), want)
		}
	}
}

// TestNoSymmetryMode checks the AutoMine-style plan (no symmetry order,
// divide by |Aut|) yields the same counts.
func TestNoSymmetryMode(t *testing.T) {
	gs := testGraphs(t)
	for _, p := range testPatterns() {
		plSym, err := plan.Compile(p, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plNo, err := plan.Compile(p, plan.Options{NoSymmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		for gname, g := range gs {
			a, err := Mine(g, plSym, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Mine(g, plNo, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if a.Count() != b.Count() {
				t.Errorf("%s on %s: symmetric=%d autominemode=%d", p.Name(), gname, a.Count(), b.Count())
			}
			// The no-symmetry plan must have explored at least as much.
			if b.Stats.Extensions < a.Stats.Extensions {
				t.Errorf("%s on %s: no-symmetry explored less (%d < %d)",
					p.Name(), gname, b.Stats.Extensions, a.Stats.Extensions)
			}
		}
	}
}

// TestMotifCountsMatchOracles verifies 3- and 4-motif counting against both
// the ESU oblivious engine and brute force.
func TestMotifCountsMatchOracles(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for k := 3; k <= 4; k++ {
			res, pl := mineApp(t, g, fmt.Sprintf("%d-MC", k), Options{Threads: 4})
			counts, motifs := res.Counts, pl.Patterns
			obl := MineOblivious(g, k, 2)
			var oblTotal int64
			for i, m := range motifs {
				if want := obl.CountInduced(m); counts[i] != want {
					t.Errorf("%d-MC %s on %s: engine=%d esu=%d", k, m.Name(), gname, counts[i], want)
				}
				if want := BruteCount(g, m, true); counts[i] != want {
					t.Errorf("%d-MC %s on %s: engine=%d brute=%d", k, m.Name(), gname, counts[i], want)
				}
				oblTotal += obl.CountInduced(m)
			}
			if oblTotal != obl.Enumerated {
				t.Errorf("%d-MC on %s: ESU classified %d of %d", k, gname, oblTotal, obl.Enumerated)
			}
		}
	}
}

// TestMultiPatternTree verifies the merged diamond + tailed-triangle plan of
// Listing 2 and a mixed edge-induced pair.
func TestMultiPatternTree(t *testing.T) {
	ps := []*pattern.Pattern{pattern.Diamond(), pattern.TailedTriangle()}
	pl, err := plan.CompileMulti(ps, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for gname, g := range testGraphs(t) {
		res, err := Mine(g, pl, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ps {
			if want := BruteCount(g, p, false); res.Counts[i] != want {
				t.Errorf("multi %s on %s: got %d want %d", p.Name(), gname, res.Counts[i], want)
			}
		}
	}
}

// TestThreadCountInvariance: results must not depend on parallelism.
func TestThreadCountInvariance(t *testing.T) {
	g := graph.ChungLu(120, 600, 2.4, 7)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	for i, threads := range []int{1, 2, 5, 16, 64} {
		res, err := Mine(g, pl, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Count()
		} else if res.Count() != first {
			t.Errorf("threads=%d: got %d want %d", threads, res.Count(), first)
		}
	}
}
