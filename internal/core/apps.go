package core

// The four GPM applications of §II-A, as one-call conveniences over the
// compiler and engine. Each returns the exact count(s) plus run stats.

import (
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// TriangleCount solves TC: the number of triangles in g.
func TriangleCount(g *graph.Graph, o Options) (int64, error) {
	r, err := CliqueCount(g, 3, o)
	return r, err
}

// CliqueCount solves k-CL using the orientation optimization of §V-C: the
// input is converted to a degree-ordered DAG (cost amortized, <1% of mining
// time) and mined without symmetry checks.
func CliqueCount(g *graph.Graph, k int, o Options) (int64, error) {
	pl, err := plan.CompileCliqueDAG(k)
	if err != nil {
		return 0, err
	}
	dag := g.Orient()
	res, err := Mine(dag, pl, o)
	if err != nil {
		return 0, err
	}
	return res.Count(), nil
}

// CliqueCountGeneric solves k-CL with the generic symmetric-graph plan
// (symmetry order instead of orientation); used to cross-check the DAG path.
func CliqueCountGeneric(g graph.Store, k int, o Options) (int64, error) {
	pl, err := plan.Compile(pattern.KClique(k), plan.Options{})
	if err != nil {
		return 0, err
	}
	res, err := Mine(g, pl, o)
	if err != nil {
		return 0, err
	}
	return res.Count(), nil
}

// SubgraphListing solves SL: the number of edge-induced subgraphs of g
// isomorphic to p. (Engines count rather than materialize; the per-embedding
// callback lives in the examples.)
func SubgraphListing(g graph.Store, p *pattern.Pattern, o Options) (int64, error) {
	pl, err := plan.Compile(p, plan.Options{})
	if err != nil {
		return 0, err
	}
	res, err := Mine(g, pl, o)
	if err != nil {
		return 0, err
	}
	return res.Count(), nil
}

// MotifCounts solves k-MC: vertex-induced counts of every connected k-vertex
// motif, in pattern.Motifs(k) order.
func MotifCounts(g graph.Store, k int, o Options) ([]int64, []*pattern.Pattern, error) {
	pl, err := plan.CompileMotifs(k, plan.Options{})
	if err != nil {
		return nil, nil, err
	}
	res, err := Mine(g, pl, o)
	if err != nil {
		return nil, nil, err
	}
	return res.Counts, pl.Patterns, nil
}
