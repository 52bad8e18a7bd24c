package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// mineApp runs one of the paper's four applications (§II-A) as the CLI's -app
// spells it: plan.CompileApp + Mine, on g's orientation where the plan wants a DAG.
func mineApp(t *testing.T, g *graph.Graph, app string, o Options) (Result, *plan.Plan) {
	t.Helper()
	pl, err := plan.CompileApp(app, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.RequiresDAG {
		g = g.Orient()
	}
	return mustMine(t, g, pl, o), pl
}

func TestAppsOnKnownGraphs(t *testing.T) {
	// Petersen graph: girth 5 — no triangles, no 4-cycles; 12 5-cycles.
	petersen := graph.MustFromEdges(10, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
		{U: 5, V: 7}, {U: 7, V: 9}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5},
		{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}, {U: 4, V: 9},
	})
	for app, want := range map[string]int64{"TC": 0, "SL-4cycle": 0, "SL-5-cycle": 12} {
		if r, _ := mineApp(t, petersen, app, Options{}); r.Count() != want {
			t.Errorf("petersen %s = %d want %d", app, r.Count(), want)
		}
	}
	// K6: C(6,2) edges; wedges = 6·C(5,2) = 60; triangles = 20.
	k6 := graph.Clique(6)
	res, pl := mineApp(t, k6, "3-MC", Options{})
	for i, m := range pl.Patterns {
		want := int64(0)
		switch m.Name() {
		case "triangle":
			want = 20
		case "wedge":
			want = 0 // induced wedges don't exist in a clique
		}
		if res.Counts[i] != want {
			t.Errorf("K6 %s = %d want %d", m.Name(), res.Counts[i], want)
		}
	}
	// Grid 4x4: 9 unit squares + 4 2x2 squares... edge-induced 4-cycles in
	// a grid are exactly the unit faces plus larger rectangles; count via
	// brute force instead of hand-derivation.
	grid := graph.Grid(4, 4)
	want := BruteCount(grid, pattern.FourCycle(), false)
	if got, _ := mineApp(t, grid, "SL-4cycle", Options{}); got.Count() != want {
		t.Errorf("grid 4-cycles = %d want %d", got.Count(), want)
	}
}

// TestObliviousEnumerationSizes: ESU must visit exactly the number of
// connected induced k-subgraphs (sum of motif counts).
func TestObliviousEnumerationSizes(t *testing.T) {
	g := graph.ErdosRenyi(40, 140, 5)
	for k := 3; k <= 4; k++ {
		obl := MineOblivious(g, k, 3)
		var wantTotal int64
		for _, c := range BruteMotifCensus(g, k) {
			wantTotal += c
		}
		if obl.Enumerated != wantTotal {
			t.Errorf("k=%d: ESU enumerated %d, brute total %d", k, obl.Enumerated, wantTotal)
		}
	}
}
