package sim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// TestSimulateAllocsIndependentOfEvents: a run allocates its PEs, caches,
// c-maps and task list up front, and nothing per event — the coordinator's
// heap holds pointer-free events by value. Two graphs whose shared-memory
// traffic differs fivefold must cost the same number of allocations; boxing
// each event into an interface (container/heap's Push) costs one per event.
func TestSimulateAllocsIndependentOfEvents(t *testing.T) {
	pl, err := plan.Compile(pattern.FourCycle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithPEs(4)
	run := func(g *graph.Graph) (allocs float64, noc int64) {
		res, err := Simulate(g, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { Simulate(g, pl, cfg) }), res.Stats.NoCRequests
	}
	small, smallNoC := run(graph.RMAT(8, 600, 0.57, 0.19, 0.19, 3))
	big, bigNoC := run(graph.RMAT(9, 4800, 0.57, 0.19, 0.19, 3))
	if bigNoC < 4*smallNoC {
		t.Fatalf("the graphs' NoC requests %d and %d differ by less than 4x; the test needs a wider gap", smallNoC, bigNoC)
	}
	if big > small {
		t.Errorf("Simulate allocates %.0f times at %d NoC requests but %.0f at %d; want no growth with the event count",
			small, smallNoC, big, bigNoC)
	}
}
