package core

// Embedding listing. The counting engine stops at leaf candidate lists (the
// last-level optimization); subgraph *listing* (SL proper) materializes each
// match. The visitor runs inside the worker, so it must be fast and must not
// retain the embedding slice. Listing rides the same task-scheduling runtime
// as counting (internal/sched): hub slicing, the degree-descending task list
// and context cancellation all apply.

import (
	"context"

	"repro/internal/graph"
	"repro/internal/plan"
)

// Visitor receives one embedding per match: emb[i] is the data vertex
// matched at plan level i, and patternIdx indexes Plan.Patterns. The slice
// is reused; copy it to retain. Visitors may be called concurrently from
// different workers.
type Visitor func(emb []graph.VID, patternIdx int)

// List enumerates every match of the plan in g, invoking visit once per
// embedding, and returns the per-pattern counts (which always equal Mine's).
// Listing plans must use symmetry breaking (CountDivisor 1), since an
// automorphism-deduplicating visitor cannot be synthesized generically.
func List(g graph.Store, pl *plan.Plan, o Options, visit Visitor) (Result, error) {
	r, err := ListContext(context.Background(), g, pl, o, visit)
	rethrow(err)
	return r, err
}

// ListContext is List under a context: once ctx is cancelled the enumeration
// stops promptly, returning the partial counts alongside ctx's error. Every
// embedding delivered to visit before that point was a genuine match.
func ListContext(ctx context.Context, g graph.Store, pl *plan.Plan, o Options, visit Visitor) (Result, error) {
	e, err := newEngine(g, pl, o, visit)
	if err != nil {
		return Result{}, err
	}
	for i, d := range pl.CountDivisor {
		if d != 1 {
			return Result{}, errDivisor(pl.Patterns[i].Name())
		}
	}
	return e.MineContext(ctx)
}

type errDivisor string

func (e errDivisor) Error() string {
	return "core: listing requires a symmetry-broken plan (pattern " + string(e) + ")"
}
