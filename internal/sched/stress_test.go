package sched

// Race-directed stress: run with -race (CI has a dedicated
// `go test -race -count=2 ./internal/sched` step). Claim timing is perturbed
// with per-worker seeded PRNG delays so claim/cancel interleavings vary across
// iterations but the test itself stays reproducible for a given seed.

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// stressTasks builds a task list long enough that every worker claims many
// times.
func stressTasks(tb testing.TB, seed int64) (*graph.Graph, []Task) {
	tb.Helper()
	g := graph.ChungLu(500, 4000, 2.3, uint64(seed))
	tasks := Expand(g, 16)
	OrderByDegreeDesc(g, tasks)
	return g, tasks
}

// TestCancellationMidRun: under jittered workers a run executes every task
// exactly once, and a run cancelled while workers are between claim and
// execution terminates promptly, reports context.Canceled and never executes a
// task twice.
func TestCancellationMidRun(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, cancelAt := range []int64{0, 25} { // 0: never, run to completion
			_, tasks := stressTasks(t, seed)
			const workers = 8
			// Per-worker PRNGs (a worker index is exclusive to one goroutine) so
			// the delay schedule is seeded, not shared-state racy.
			rngs := make([]*rand.Rand, workers)
			for w := range rngs {
				rngs[w] = rand.New(rand.NewSource(seed*101 + int64(w)))
			}
			ctx, cancel := context.WithCancel(context.Background())
			ran := make([]atomic.Int32, len(tasks))
			index := map[Task]int{}
			for i, task := range tasks {
				index[task] = i
			}
			var executed atomic.Int64
			err := RunHooked(ctx, workers, tasks, func(w int, task Task) bool {
				if d := rngs[w].Intn(50); d > 45 {
					time.Sleep(time.Duration(d) * time.Microsecond)
				}
				ran[index[task]].Add(1)
				if executed.Add(1) == cancelAt {
					cancel()
				}
				return true
			}, Hooks{})
			cancel()
			var want error
			wantRuns := int32(1)
			if cancelAt > 0 {
				want, wantRuns = context.Canceled, 0
				if n := executed.Load(); n >= int64(len(tasks)) {
					t.Fatalf("seed=%d: cancellation did not cut the run short (%d/%d)", seed, n, len(tasks))
				}
			}
			if err != want {
				t.Fatalf("seed=%d cancelAt=%d: err = %v, want %v", seed, cancelAt, err, want)
			}
			for i := range ran {
				if n := ran[i].Load(); n > 1 || n < wantRuns {
					t.Fatalf("seed=%d cancelAt=%d: task %d ran %d times", seed, cancelAt, i, n)
				}
			}
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
	h := Hooks{OnTask: func(int, Task) { seen.Add(1) }}
	if err := RunHooked(context.Background(), 4, tasks, func(int, Task) bool { b.Add(1); return true }, h); err != nil {
		t.Fatal(err)
	}
	if n := int64(len(tasks)); a.Load() != n || b.Load() != n || seen.Load() != n {
		t.Fatalf("zero Hooks executed %d, hooked %d (OnTask saw %d), want %d", a.Load(), b.Load(), seen.Load(), n)
	}
}
