package sched

// Race-directed stress tests: run with -race (CI has a dedicated
// `go test -race ./internal/sched` step). Steal timing is perturbed with
// per-worker seeded PRNG delays so interleavings vary across iterations but
// the test itself stays reproducible for a given seed.

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// stressTasks builds a task list big enough that every worker both pops its
// own deque and steals from others.
func stressTasks(tb testing.TB, seed int64) (*graph.Graph, []Task) {
	tb.Helper()
	g := graph.ChungLu(500, 4000, 2.3, uint64(seed))
	tasks := Expand(g, 16)
	OrderByDegreeDesc(g, tasks)
	return g, tasks
}

func TestStressStealRaceSeeded(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		_, tasks := stressTasks(t, seed)
		const workers = 8
		// Per-worker PRNGs (a worker index is exclusive to one goroutine) so
		// the delay schedule is seeded, not shared-state racy.
		rngs := make([]*rand.Rand, workers)
		for w := range rngs {
			rngs[w] = rand.New(rand.NewSource(seed*101 + int64(w)))
		}
		ran := make([]atomic.Int32, len(tasks))
		index := map[Task]int{}
		for i, task := range tasks {
			index[task] = i
		}
		var steals, stolen atomic.Int64
		h := Hooks{OnSteal: func(thief, victim, ntasks int) {
			if thief < 0 || thief >= workers || victim < 0 || victim >= workers {
				t.Errorf("steal indices out of range: thief=%d victim=%d", thief, victim)
			}
			if thief == victim {
				t.Errorf("worker %d stole from itself", thief)
			}
			if ntasks <= 0 {
				t.Errorf("steal reported %d tasks", ntasks)
			}
			steals.Add(1)
			stolen.Add(int64(ntasks))
		}}
		err := RunHooked(context.Background(), workers, tasks, func(w int, task Task) bool {
			if d := rngs[w].Intn(50); d > 45 {
				time.Sleep(time.Duration(d) * time.Microsecond)
			}
			ran[index[task]].Add(1)
			return true
		}, h)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("seed=%d: task %d ran %d times", seed, i, n)
			}
		}
		if stolen.Load() > int64(len(tasks)) {
			t.Errorf("seed=%d: hooks reported %d tasks stolen, more than the %d scheduled",
				seed, stolen.Load(), len(tasks))
		}
		t.Logf("seed=%d: %d steals moved %d/%d tasks", seed, steals.Load(), stolen.Load(), len(tasks))
	}
}

// TestCancellationMidSteal is the regression for cancellation latching while
// thieves are mid-transfer: the run must terminate promptly, never execute a
// task twice, and never fire a hook with an emptied victim misreported.
func TestCancellationMidSteal(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		_, tasks := stressTasks(t, seed)
		const workers = 8
		ctx, cancel := context.WithCancel(context.Background())
		ran := make([]atomic.Int32, len(tasks))
		index := map[Task]int{}
		for i, task := range tasks {
			index[task] = i
		}
		var executed atomic.Int64
		h := Hooks{OnSteal: func(thief, victim, ntasks int) {
			// Widen the mid-steal window so cancellation overlaps transfers.
			time.Sleep(20 * time.Microsecond)
			if ntasks <= 0 || thief == victim {
				t.Errorf("bad steal report: thief=%d victim=%d n=%d", thief, victim, ntasks)
			}
		}}
		err := RunHooked(ctx, workers, tasks, func(w int, task Task) bool {
			ran[index[task]].Add(1)
			if executed.Add(1) == 25 {
				cancel()
			}
			return true
		}, h)
		cancel()
		if err != context.Canceled {
			t.Fatalf("seed=%d: err = %v, want context.Canceled", seed, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n > 1 {
				t.Fatalf("seed=%d: task %d ran %d times after mid-steal cancel", seed, i, n)
			}
		}
		if n := executed.Load(); n >= int64(len(tasks)) {
			t.Fatalf("seed=%d: cancellation did not cut the run short (%d/%d)", seed, n, len(tasks))
		}
	}
}

// TestRunHookedNilHooksEquivalent pins that observation changes nothing: a run
// with zero Hooks executes exactly the tasks a fully hooked run does, and the
// hooked run's OnTask saw each of them.
func TestRunHookedNilHooksEquivalent(t *testing.T) {
	_, tasks := stressTasks(t, 5)
	var a, b, seen atomic.Int64
	if err := RunHooked(context.Background(), 4, tasks, func(int, Task) bool { a.Add(1); return true }, Hooks{}); err != nil {
		t.Fatal(err)
	}
	h := Hooks{OnSteal: func(int, int, int) {}, OnTask: func(int, Task) { seen.Add(1) }}
	if err := RunHooked(context.Background(), 4, tasks, func(int, Task) bool { b.Add(1); return true }, h); err != nil {
		t.Fatal(err)
	}
	if n := int64(len(tasks)); a.Load() != n || b.Load() != n || seen.Load() != n {
		t.Fatalf("zero Hooks executed %d, hooked %d (OnTask saw %d), want %d", a.Load(), b.Load(), seen.Load(), n)
	}
}
