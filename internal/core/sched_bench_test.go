package core

// The scheduler against the contiguous-chunk dispatch it replaced, on the
// Table-I stand-ins (TC and 4-CL on the livejournal/orkut stand-ins, 16
// workers — the acceptance workloads).
//
// Two instruments:
//
//   - BenchmarkScheduler measures the list's wall clock. On a host with
//     fewer cores than workers it degenerates to total-work time plus
//     dispatch overhead.
//   - TestSchedulerMakespanModel* are deterministic on any host: they
//     measure the true per-task work of every task, then replay both
//     dispatches in virtual time with 16 ideal workers. modelListMakespan is
//     not an approximation of sched.RunHooked: tasks in list order, each
//     claimed by whichever worker is free first, is the scheduler's schedule
//     (sched.TestRunClaimsInListOrder and TestRunIsGreedy pin the two halves),
//     so the modeled makespan is what wall clock reads on a 16-core machine
//     up to the cost of one atomic add per task.
//
// The acceptance workloads run the GraphZero-class plans (plan.Compile with
// symmetry breaking) on the symmetric graphs, where power-law hubs
// (dmax 944 on Lj, 1242 on Or) serialize whole chunks; there the sliced
// LPT list wins 27–61%. The orientation-optimized DAG variants are covered
// separately: orientation caps the max out-degree at 52/35, so the
// contiguous-chunk schedule is already within 6–8% of the total/16 lower
// bound — the near-optimality test pins the list schedule to that bound
// instead of an unattainable relative gap.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// benchWorkload mirrors the bench-package stand-ins without importing it
// (bench imports core).
type benchWorkload struct {
	name string
	g    *graph.Graph
	pl   *plan.Plan
}

// standIns returns the Lj and Or stand-ins of bench/datasets.go.
func standIns() (lj, or *graph.Graph) {
	lj = graph.RMAT(12, 34000, 0.57, 0.19, 0.19, 0x17)
	or = graph.ChungLu(2400, 48000, 2.5, 0x08)
	return lj, or
}

// schedWorkloads are the acceptance workloads: TC and 4-CL via the
// symmetry-breaking plans on the symmetric stand-ins.
func schedWorkloads(tb testing.TB) []benchWorkload {
	tb.Helper()
	tc, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cl4, err := plan.Compile(pattern.KClique(4), plan.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	lj, or := standIns()
	return []benchWorkload{
		{name: "TC-Lj", g: lj, pl: tc},
		{name: "TC-Or", g: or, pl: tc},
		{name: "4CL-Lj", g: lj, pl: cl4},
		{name: "4CL-Or", g: or, pl: cl4},
	}
}

// dagWorkloads are the same apps on the §V-C orientation path
// (CompileCliqueDAG on degree-oriented DAGs).
func dagWorkloads(tb testing.TB) []benchWorkload {
	tb.Helper()
	tc, err := plan.CompileCliqueDAG(3)
	if err != nil {
		tb.Fatal(err)
	}
	cl4, err := plan.CompileCliqueDAG(4)
	if err != nil {
		tb.Fatal(err)
	}
	lj, or := standIns()
	return []benchWorkload{
		{name: "TC-Lj-DAG", g: lj.Orient(), pl: tc},
		{name: "4CL-Or-DAG", g: or.Orient(), pl: cl4},
	}
}

const benchThreads = 16

func BenchmarkScheduler(b *testing.B) {
	for _, w := range schedWorkloads(b) {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mine(w.g, w.pl, Options{Threads: benchThreads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// taskCosts measures each task's true work (extensions + merge iterations +
// candidates) by running it on a sequential merge-only worker: the merge model
// is the one work measure no kernel choice moves, so the dispatches are
// compared on the tasks' sizes and not on what KernelAuto does to them (its
// c-map re-inserts adj(v0) per hub slice — DESIGN.md decision 19 has the cost).
func taskCosts(g *graph.Graph, pl *plan.Plan, tasks []sched.Task) []int64 {
	o := Options{Threads: 1, Kernel: KernelMergeOnly}.withDefaults()
	w := newWorker(g, lower(g, pl, o, false), o)
	costs := make([]int64, len(tasks))
	var prev int64
	for i, t := range tasks {
		w.runTask(t)
		total := w.stats.Extensions + w.stats.SetOpIterations + w.stats.Candidates
		costs[i] = total - prev + 1 // +1: dispatch overhead floor
		prev = total
	}
	return costs
}

// modelChunkMakespan replays the old dispatch in virtual time: contiguous
// 16-vertex chunks handed to whichever ideal worker is free first.
func modelChunkMakespan(costs []int64, workers, chunk int) int64 {
	clocks := make([]int64, workers)
	for lo := 0; lo < len(costs); lo += chunk {
		hi := lo + chunk
		if hi > len(costs) {
			hi = len(costs)
		}
		var sum int64
		for _, c := range costs[lo:hi] {
			sum += c
		}
		*minClock(clocks) += sum
	}
	return maxClock(clocks)
}

// modelListMakespan replays sched.RunHooked in virtual time: sliced tasks,
// heaviest first, each claimed by whichever worker is free first.
func modelListMakespan(costs []int64, order []int, workers int) int64 {
	clocks := make([]int64, workers)
	for _, i := range order {
		*minClock(clocks) += costs[i]
	}
	return maxClock(clocks)
}

func minClock(clocks []int64) *int64 {
	m := 0
	for i := 1; i < len(clocks); i++ {
		if clocks[i] < clocks[m] {
			m = i
		}
	}
	return &clocks[m]
}

func maxClock(clocks []int64) int64 {
	var m int64
	for _, c := range clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// modelWorkload returns the modeled makespans of both dispatches plus the
// total/workers lower bound for one workload.
func modelWorkload(w benchWorkload) (chunkSpan, listSpan, lowerBound int64, nWhole, nSliced int) {
	// Old dispatch: whole-vertex tasks, contiguous chunks of 16.
	whole := sched.Expand(w.g, 0)
	wholeCosts := taskCosts(w.g, w.pl, whole)
	chunkSpan = modelChunkMakespan(wholeCosts, benchThreads, 16)

	// sched.RunHooked: hub-sliced tasks, degree-descending, greedy.
	sliced := sched.Expand(w.g, autoSliceElems)
	sched.OrderByDegreeDesc(w.g, sliced)
	slicedCosts := taskCosts(w.g, w.pl, sliced)
	order := make([]int, len(sliced))
	for i := range order {
		order[i] = i
	}
	listSpan = modelListMakespan(slicedCosts, order, benchThreads)

	var total int64
	for _, c := range wholeCosts {
		total += c
	}
	lowerBound = total / benchThreads
	return chunkSpan, listSpan, lowerBound, len(whole), len(sliced)
}

// TestSchedulerMakespanModel: with 16 ideal workers, the sliced LPT-ordered
// schedule must beat the contiguous-chunk schedule by ≥ 15% on every
// acceptance workload (measured: TC-Lj 49%, TC-Or 27%, 4CL-Lj 61%,
// 4CL-Or 33%).
func TestSchedulerMakespanModel(t *testing.T) {
	for _, w := range schedWorkloads(t) {
		chunkSpan, listSpan, lb, nWhole, nSliced := modelWorkload(w)
		improvement := 1 - float64(listSpan)/float64(chunkSpan)
		t.Logf("%s: chunk makespan %d, list makespan %d, lower bound %d (%.1f%% better, %d→%d tasks)",
			w.name, chunkSpan, listSpan, lb, improvement*100, nWhole, nSliced)
		if improvement < 0.15 {
			t.Errorf("%s: modeled improvement %.1f%% < 15%%", w.name, improvement*100)
		}
	}
}

// TestSchedulerMakespanModelOriented: on the orientation-optimized DAG
// variants the hubs are already flattened (max out-degree 52/35), so the
// chunk schedule sits within 6–8% of the total/16 lower bound and no 15%
// relative gap exists. The stronger property that does hold: the list
// schedule achieves the lower bound to within 2%, i.e. it is near-optimal.
func TestSchedulerMakespanModelOriented(t *testing.T) {
	for _, w := range dagWorkloads(t) {
		chunkSpan, listSpan, lb, nWhole, nSliced := modelWorkload(w)
		improvement := 1 - float64(listSpan)/float64(chunkSpan)
		t.Logf("%s: chunk makespan %d, list makespan %d, lower bound %d (%.1f%% better, %d→%d tasks)",
			w.name, chunkSpan, listSpan, lb, improvement*100, nWhole, nSliced)
		if listSpan > lb+lb/50 {
			t.Errorf("%s: list makespan %d not within 2%% of lower bound %d", w.name, listSpan, lb)
		}
		if improvement < 0 {
			t.Errorf("%s: list schedule worse than chunk (%.1f%%)", w.name, improvement*100)
		}
	}
}
