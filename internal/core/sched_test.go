package core

// Tests for the engine's integration with the internal/sched runtime: context
// cancellation (prompt return, no goroutine leak), a task's panic, and the
// empty-result Count guard. That no count depends on threads or slicing is
// TestDifferential's.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// TestMineContextCancel: a cancelled context must stop the run promptly,
// return partial results with ctx's error, and leak no goroutines. The run
// cancels itself from inside, after its eighth task: a timer would race the
// engine, and loses to it on a fast enough one.
func TestMineContextCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	g := graph.ChungLu(1500, 30000, 2.2, 5)
	pl, err := plan.Compile(pattern.KClique(5), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished atomic.Int64
	e, err := NewEngine(g, pl, Options{Threads: 4, OnTaskDone: func(int, int64) {
		if finished.Add(1) == 8 {
			cancel()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := e.MineContext(ctx)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Counts) != 1 {
		t.Fatalf("partial result missing counts: %+v", res)
	}
	// Promptness: each worker finishes at most the task it is in, so nearly
	// every task is left unstarted, and the call is back well inside a second.
	if ran, all := res.Stats.Tasks, int64(e.TaskCount()); ran < 8 || ran > 8+2*4 || ran >= all {
		t.Errorf("cancelled after 8 of %d tasks, the run executed %d", all, ran)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation not prompt: took %v", elapsed)
	}
	// Workers must have exited: poll briefly, then compare goroutine counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestMineContextDeadline covers the timeout flavor end to end: a deadline
// already expired at the call runs nothing and reports it.
func TestMineContextDeadline(t *testing.T) {
	g := graph.ChungLu(1500, 30000, 2.2, 6)
	pl, err := plan.Compile(pattern.KClique(5), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := MineContext(ctx, g, pl, Options{Threads: 2})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(res.Counts) != 1 || res.Stats.Tasks != 0 {
		t.Errorf("expired deadline: counts %v after %d tasks, want one zero count and no task", res.Counts, res.Stats.Tasks)
	}
}

// TestMineContextComplete: an unexercised context must not disturb a run.
func TestMineContextComplete(t *testing.T) {
	g := graph.Clique(6)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(context.Background(), g, pl, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 20 {
		t.Errorf("triangles = %d, want 20", res.Count())
	}
}

// TestListContextCancel: the listing path shares the cancellation machinery.
func TestListContextCancel(t *testing.T) {
	g := graph.ChungLu(1500, 30000, 2.2, 7)
	pl, err := plan.Compile(pattern.KClique(4), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	_, err = ListContext(ctx, g, pl, Options{Threads: 4}, func(emb []graph.VID, idx int) {
		if seen.Add(1) == 100 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResultCountEmpty: Count on an empty result must not panic.
// TestTaskPanic: a panic inside a task — here a visitor's — comes back from the
// context entry points as the scheduler's error beside the partial result, and
// is raised again, value intact, by the ones that take no context.
func TestTaskPanic(t *testing.T) {
	g := graph.ChungLu(300, 2400, 2.3, 9)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(g, pl, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var visits atomic.Int64
	boom := func([]graph.VID, int) {
		if visits.Add(1) == 10 {
			panic("boom at match 10")
		}
	}
	res, err := ListContext(context.Background(), g, pl, Options{Threads: 4}, boom)
	var pe *sched.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom at match 10" {
		t.Fatalf("ListContext: err = %v, want the visitor's panic as a *sched.PanicError", err)
	}
	if c := res.Count(); c <= 0 || c >= want.Count() {
		t.Errorf("ListContext: partial count %d, want some of the %d matches", c, want.Count())
	}
	defer func() {
		if v := recover(); v != "boom at match 10" {
			t.Errorf("List recovered %v, want the visitor's own panic value", v)
		}
	}()
	visits.Store(0)
	List(g, pl, Options{Threads: 4}, boom) //nolint:errcheck // panics
	t.Error("List returned from a panicking visitor")
}

func TestResultCountEmpty(t *testing.T) {
	if c := (Result{}).Count(); c != 0 {
		t.Errorf("empty Result.Count() = %d, want 0", c)
	}
}
