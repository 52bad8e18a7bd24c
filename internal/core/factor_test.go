package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// star is K_{1,leaves}: one hub over the auto slice width, every other vertex a leaf.
func star(leaves int) *graph.Graph {
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: graph.VID(i + 1)}
	}
	return graph.MustFromEdges(leaves+1, edges)
}

// windmill is blades triangles sharing vertex 0: every edge is in exactly one, so
// each list of common neighbours has one vertex and the weights below it are 1 or 0.
func windmill(blades int) *graph.Graph {
	var edges []graph.Edge
	for i := 1; i < 2*blades; i += 2 {
		a, b := graph.VID(i), graph.VID(i+1)
		edges = append(edges, graph.Edge{U: 0, V: a}, graph.Edge{U: 0, V: b}, graph.Edge{U: a, V: b})
	}
	return graph.MustFromEdges(2*blades+1, edges)
}

// factored reports whether the program has a factor node.
func factored(p *program) bool { return strings.Contains(lowering(p), " factor") }

// searching takes the probe form of the membership test from every node below n.
func searching(n *node) {
	if n.fac != nil {
		n.fac.in = nil
	}
	for _, c := range n.children {
		searching(c)
	}
}

// TestFactorDifferential holds the weighted walk (DESIGN.md decision 23) to
// BruteCount and to the enumerating walk: every five-vertex pattern and the
// six-vertex ones that get a factor node, on a skewed, a power-law, a complete,
// a star and a windmill graph (the hubs of the last two are cut into 32-element
// slices, the complete graph makes every candidate of a level below a factor one
// of the factor's, the star none), one and four threads, hub slices
// off and on, the membership test probing the c-map and searching the
// factor's list (what a source level past the c-map's eight falls back to); then
// house merged with 5-motif-13, an enumerated branch below the same v1, and with
// 5-motif-6, whose branch runs on local rows, so that tasks are local with a
// weighted branch in them. Per run: counts == BruteCount; Stats.Candidates equals
// the merge-only run's, which has no factor — the weights sum to what walking the
// list would have emitted; Stats.Extensions is no more than merge-only's, and
// lower on the complete graph wherever there is a factor.
//
// Mutants this must kill, each run against it by hand when the rule went in: the
// weight not decremented at an interior candidate that is in the factor's list,
// and a leaf's B dropped (every factor-bearing pattern miscounts); a subtree
// walked at weight 0 (no count and no candidate moves, only Extensions: one more
// than merge-only's per skipped descent, which the windmill graph, where every
// weight is 1 or 0, does not bury under the extensions saved); a factor taken
// although a descendant's UpperBounds names its level (the compiler lists no
// level in NotEqual that it orders, so names and the NotEqual test each refuse it
// alone — with both gone 6-motif-3, -4 and -16 miscount here and in
// TestLeafEvaluationsAgree); the factor's bound left out of the probe form of the
// membership test (6-motif-4, -7, -43, -81: a mark holds more than the prefix).
func TestFactorDifferential(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	five := []input{
		{"rmat", graph.RMAT(6, 220, 0.57, 0.19, 0.19, 3)},
		{"chung-lu", graph.ChungLu(48, 160, 2.0, 5)},
		{"complete", graph.Clique(9)},
		{"star", star(40)},
		{"windmill", windmill(20)},
	}
	six := []input{
		{"rmat", graph.RMAT(4, 40, 0.57, 0.19, 0.19, 3)},
		{"chung-lu", graph.ChungLu(16, 44, 2.0, 5)},
		{"complete", graph.Clique(8)},
		{"star", star(40)},
		{"windmill", windmill(20)},
	}
	var bearing [7]int // patterns with a factor node, by size
	check := func(in input, pl *plan.Plan, wantFactor bool) {
		t.Helper()
		want := make([]int64, len(pl.Patterns))
		for i, p := range pl.Patterns {
			want[i] = BruteCount(in.g, p, false)
		}
		for _, threads := range []int{1, 4} {
			for _, slice := range []int{SliceOff, 32} {
				merge, err := Mine(in.g, pl, Options{Threads: threads, SliceElems: slice, Kernel: KernelMergeOnly})
				if err != nil {
					t.Fatal(err)
				}
				if merge.Stats.ClosedForms != 0 {
					t.Fatalf("%s: merge-only evaluated %d closed forms", pl.Patterns[0].Name(), merge.Stats.ClosedForms)
				}
				for _, search := range []bool{false, true} {
					name := fmt.Sprintf("%s on %s threads=%d slice=%d search=%v", pl.Patterns[0].Name(), in.name, threads, slice, search)
					e, err := NewEngine(in.g, pl, Options{Threads: threads, SliceElems: slice})
					if err != nil {
						t.Fatal(err)
					}
					if got := factored(e.prog); got != wantFactor {
						t.Fatalf("%s: factor node: %v, want %v", name, got, wantFactor)
					}
					if search { // the membership test as with a source past cmLevels
						searching(e.prog.root)
					}
					res := e.Mine()
					if !slices.Equal(res.Counts, want) || !slices.Equal(merge.Counts, want) {
						t.Errorf("%s: counts %v, merge-only %v, BruteCount %v", name, res.Counts, merge.Counts, want)
					}
					s := res.Stats
					if s.Candidates != merge.Stats.Candidates || s.Extensions > merge.Stats.Extensions {
						t.Errorf("%s: %d candidates, %d extensions; merge-only %d, %d: want equal, and no more", name,
							s.Candidates, s.Extensions, merge.Stats.Candidates, merge.Stats.Extensions)
					}
					if wantFactor && in.name == "complete" && (s.ClosedForms == 0 || s.Extensions >= merge.Stats.Extensions) {
						t.Errorf("%s: %d closed forms, %d extensions of merge-only's %d: want a factor evaluated, and fewer", name,
							s.ClosedForms, s.Extensions, merge.Stats.Extensions)
					}
				}
			}
		}
	}
	o := Options{}.withDefaults()
	for k, inputs := range map[int][]input{5: five, 6: six} {
		for _, p := range pattern.Motifs(k) {
			pl := mustCompile(t, p, plan.Options{})
			has := factored(lower(five[0].g, pl, o, false))
			if has {
				bearing[k]++
			} else if k == 6 {
				continue
			}
			for _, in := range inputs {
				check(in, pl, has)
			}
		}
	}
	if bearing[5] != 3 || bearing[6] == 0 {
		t.Errorf("%d five-vertex and %d six-vertex patterns have a factor node; want 3 (house, 5-motif-2, 5-motif-9) and some", bearing[5], bearing[6])
	}
	motifs := pattern.Motifs(5)
	for _, other := range []*pattern.Pattern{motifs[13], motifs[6]} {
		pl, err := plan.CompileMulti([]*pattern.Pattern{pattern.House(), other}, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range five {
			check(in, pl, true)
		}
	}
}
