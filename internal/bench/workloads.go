package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
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

// planForApp compiles the plan used by one of the standard applications.
// Cliques (TC, k-CL) use the orientation optimization; SL uses edge-induced
// single-pattern plans; k-MC uses the vertex-induced motif tree.
func planForApp(app string) (*plan.Plan, bool, error) {
	switch app {
	case "TC":
		pl, err := plan.CompileCliqueDAG(3)
		return pl, true, err
	case "4-CL":
		pl, err := plan.CompileCliqueDAG(4)
		return pl, true, err
	case "5-CL":
		pl, err := plan.CompileCliqueDAG(5)
		return pl, true, err
	case "SL-4cycle":
		pl, err := plan.Compile(pattern.FourCycle(), plan.Options{})
		return pl, false, err
	case "SL-diamond":
		pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
		return pl, false, err
	case "SL-house":
		pl, err := plan.Compile(pattern.House(), plan.Options{})
		return pl, false, err
	case "3-MC":
		pl, err := plan.CompileMotifs(3, plan.Options{})
		return pl, false, err
	case "4-MC":
		pl, err := plan.CompileMotifs(4, plan.Options{})
		return pl, false, err
	}
	var k int
	if _, err := fmt.Sscanf(app, "%d-CL", &k); err == nil && k >= 2 {
		pl, err := plan.CompileCliqueDAG(k)
		return pl, true, err
	}
	return nil, false, fmt.Errorf("bench: unknown app %q", app)
}

// autoMinePlan compiles the AutoMine-mode variant (no symmetry order) of an
// app's plan; it runs on the symmetric graph.
func autoMinePlan(app string) (*plan.Plan, error) {
	opt := plan.Options{NoSymmetry: true}
	switch app {
	case "TC":
		return plan.Compile(pattern.Triangle(), opt)
	case "4-CL":
		return plan.Compile(pattern.KClique(4), opt)
	case "5-CL":
		return plan.Compile(pattern.KClique(5), opt)
	case "SL-4cycle":
		return plan.Compile(pattern.FourCycle(), opt)
	case "SL-diamond":
		return plan.Compile(pattern.Diamond(), opt)
	case "3-MC":
		opt.Induced = true
		return plan.CompileMulti(pattern.Motifs(3), opt)
	}
	return nil, fmt.Errorf("bench: no AutoMine variant for %q", app)
}

var dagCache = map[string]*graph.Graph{}

// NewWorkload builds the workload for an (app, dataset) pair, caching the
// oriented DAG per dataset (the paper amortizes orientation the same way:
// "once converted, the graph can be used for any k-CL").
func NewWorkload(app, dataset string) (Workload, error) {
	pl, needsDAG, err := planForApp(app)
	if err != nil {
		return Workload{}, err
	}
	g, err := Get(dataset)
	if err != nil {
		return Workload{}, err
	}
	if needsDAG {
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
