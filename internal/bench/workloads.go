package bench

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Workload pairs a compiled plan with the (possibly orientation-preprocessed)
// graph it runs on, so the CPU engine and the simulator execute exactly the
// same search.
type Workload struct {
	App     string
	Dataset string
	G       *graph.Graph
	Plan    *plan.Plan
}

var dagCache = map[string]*graph.Graph{}

// NewWorkload builds the workload for an (app, dataset) pair, caching the
// oriented DAG per dataset (the paper amortizes orientation the same way:
// "once converted, the graph can be used for any k-CL").
func NewWorkload(app, dataset string) (Workload, error) {
	pl, err := plan.CompileApp(app, plan.Options{})
	if err != nil {
		return Workload{}, err
	}
	g, err := Get(dataset)
	if err != nil {
		return Workload{}, err
	}
	if pl.RequiresDAG {
		dsMu.Lock()
		dag, ok := dagCache[dataset]
		if !ok {
			dag = g.Orient()
			dagCache[dataset] = dag
		}
		dsMu.Unlock()
		g = dag
	}
	return Workload{App: app, Dataset: dataset, G: g, Plan: pl}, nil
}

// BaselineSeconds times the CPU software baseline (GraphZero-equivalent) on
// this workload with the given thread count, returning the wall-clock
// seconds and the counts for cross-checking. Options come from
// core.PaperBaseline, like every paper runner's: the published baselines this
// models (GraphZero, AutoMine) are merge-based, so the accelerator speedup
// figures keep the paper's meaning.
func (w Workload) BaselineSeconds(threads int) (float64, []int64, error) {
	eng, err := core.NewEngine(w.G, w.Plan, core.PaperBaseline(threads))
	if err != nil {
		return 0, nil, err
	}
	start := now()
	res := eng.Mine()
	return since(start), res.Counts, nil
}
