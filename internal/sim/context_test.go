package sim

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// TestSimulateContextCancelled: with a pre-cancelled context the scheduler
// dispatches nothing, the PEs drain immediately, and the partial (empty)
// result comes back with ctx's error.
func TestSimulateContextCancelled(t *testing.T) {
	g := graph.ChungLu(400, 3000, 2.3, 5)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SimulateContext(ctx, g, pl, DefaultConfig().WithPEs(4))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stats.Tasks != 0 {
		t.Errorf("cancelled run dispatched %d tasks", res.Stats.Tasks)
	}
	if res.Count() != 0 {
		t.Errorf("cancelled run counted %d", res.Count())
	}
}

// TestSimulateContextComplete: a background context must leave the
// simulation and its determinism untouched.
func TestSimulateContextComplete(t *testing.T) {
	g := graph.ChungLu(400, 3000, 2.3, 5)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(g, pl, DefaultConfig().WithPEs(4))
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := SimulateContext(context.Background(), g, pl, DefaultConfig().WithPEs(4))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Count() != ctxed.Count() || plain.Stats.Cycles != ctxed.Stats.Cycles {
		t.Errorf("context changed the run: %d/%d cycles vs %d/%d",
			plain.Count(), plain.Stats.Cycles, ctxed.Count(), ctxed.Stats.Cycles)
	}
}

// goroutinesReturnTo polls (≤ 2 s) for the goroutine count to fall back to a
// baseline taken before a spawner ran.
func goroutinesReturnTo(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestSimulateJoinsPEs holds the leak invariant for the PE coroutines — the
// package has no `go` statement for internal/lint's goroleak to look at, but a pull
// coroutine is a goroutine to runtime.NumGoroutine until its stop is called: a
// run to completion and a run whose deadline fires mid-simulation both retire
// and stop every PE before returning.
func TestSimulateJoinsPEs(t *testing.T) {
	g := graph.ChungLu(2000, 24000, 2.3, 5)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	small := graph.ChungLu(400, 3000, 2.3, 5)
	if _, err := Simulate(small, pl, DefaultConfig().WithPEs(8)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := SimulateContext(ctx, g, pl, DefaultConfig().WithPEs(8))
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want the deadline to fire mid-run", err)
	}
	if res.Stats.Tasks >= int64(g.NumVertices()) {
		t.Errorf("deadline run dispatched all %d tasks; want it cut short", res.Stats.Tasks)
	}
	goroutinesReturnTo(t, before)
}

// TestPEPanicIsTheCallersPanic: a PE that panics mid-task panics the goroutine
// that called Simulate, where it can be recovered, and the other PEs — parked
// at a shared event, most of them mid-task — are stopped, not abandoned.
func TestPEPanicIsTheCallersPanic(t *testing.T) {
	g := graph.ChungLu(400, 3000, 2.3, 5)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Row still promises the whole edge array: the first Adj past the cut is
	// a slice-bounds panic deep in some PE's walk.
	g.Col = g.Col[: len(g.Col)/2 : len(g.Col)/2]
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Simulate returned; want the PE's panic in this goroutine")
			}
		}()
		Simulate(g, pl, DefaultConfig().WithPEs(8))
	}()
	goroutinesReturnTo(t, before)
}

// TestSimResultCountEmpty: Count on an empty result must not panic.
func TestSimResultCountEmpty(t *testing.T) {
	if c := (Result{}).Count(); c != 0 {
		t.Errorf("empty Result.Count() = %d, want 0", c)
	}
}
