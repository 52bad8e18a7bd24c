package sched

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// coverage collects, per vertex, which adjacency elements the task list
// covers, to assert Expand partitions exactly.
func coverage(g *graph.Graph, tasks []Task) map[graph.VID][]bool {
	cov := map[graph.VID][]bool{}
	for _, t := range tasks {
		deg := g.Degree(t.V0)
		seen, ok := cov[t.V0]
		if !ok {
			seen = make([]bool, deg)
			cov[t.V0] = seen
		}
		lo, hi := t.Lo, t.Hi
		if !t.Sliced() {
			lo, hi = 0, deg
		}
		for i := lo; i < hi; i++ {
			if seen[i] {
				return nil // double cover
			}
			seen[i] = true
		}
	}
	return cov
}

func TestExpandPartitionsAdjacency(t *testing.T) {
	g := graph.ChungLu(200, 1500, 2.2, 11)
	for _, slice := range []int{0, 1, 7, 32, 1 << 20} {
		tasks := Expand(g, slice)
		cov := coverage(g, tasks)
		if cov == nil {
			t.Fatalf("slice=%d: overlapping tasks", slice)
		}
		if len(cov) != g.NumVertices() {
			t.Fatalf("slice=%d: %d vertices covered, want %d", slice, len(cov), g.NumVertices())
		}
		for v, seen := range cov {
			for i, ok := range seen {
				if !ok {
					t.Fatalf("slice=%d: vertex %d element %d uncovered", slice, v, i)
				}
			}
		}
		if slice > 0 {
			for _, task := range tasks {
				if task.Sliced() && task.Hi-task.Lo > slice {
					t.Fatalf("slice=%d: task %+v too wide", slice, task)
				}
			}
		}
	}
}

func TestExpandZeroDegree(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}}) // vertices 2, 3 isolated
	tasks := Expand(g, 4)
	if len(tasks) != 4 {
		t.Fatalf("got %d tasks, want 4", len(tasks))
	}
	for _, task := range tasks {
		if task.Sliced() {
			t.Fatalf("small vertices must stay whole: %+v", task)
		}
	}
}

func TestOrderByDegreeDesc(t *testing.T) {
	g := graph.ChungLu(100, 600, 2.3, 5)
	tasks := Expand(g, 8)
	OrderByDegreeDesc(g, tasks)
	for i := 1; i < len(tasks); i++ {
		if g.Degree(tasks[i-1].V0) < g.Degree(tasks[i].V0) {
			t.Fatalf("not degree-descending at %d", i)
		}
	}
	// Stability: slices of one hub keep ascending Lo.
	lastLo := map[graph.VID]int{}
	for _, task := range tasks {
		if lo, ok := lastLo[task.V0]; ok && task.Lo <= lo {
			t.Fatalf("slice order broken for vertex %d", task.V0)
		}
		lastLo[task.V0] = task.Lo
	}
}

// TestOrderByDegreeDescMatchesStableSort pins the counting sort to the order
// the reflection-based sort.SliceStable it replaced produced, sub-task Lo
// order included, on symmetric and oriented R-MAT graphs with and without
// slicing.
func TestOrderByDegreeDescMatchesStableSort(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		sym := graph.RMAT(10, 6000, 0.57, 0.19, 0.19, seed)
		for _, g := range []*graph.Graph{sym, sym.Orient()} {
			for _, slice := range []int{0, 8, 32} {
				got := Expand(g, slice)
				want := append([]Task(nil), got...)
				sort.SliceStable(want, func(i, j int) bool {
					return g.Degree(want[i].V0) > g.Degree(want[j].V0)
				})
				OrderByDegreeDesc(g, got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d dag=%v slice %d: counting sort differs from sort.SliceStable", seed, g.IsDAG(), slice)
				}
			}
		}
	}
	OrderByDegreeDesc(graph.RMAT(4, 20, 0.57, 0.19, 0.19, 1), nil)
}

func TestRunExecutesEachTaskOnce(t *testing.T) {
	g := graph.ChungLu(300, 2400, 2.3, 9)
	tasks := Expand(g, 16)
	OrderByDegreeDesc(g, tasks)
	for _, workers := range []int{1, 3, 8, 64, len(tasks) + 5} {
		ran := make([]atomic.Int32, len(tasks))
		index := map[Task]int{}
		for i, task := range tasks {
			index[task] = i
		}
		err := RunHooked(context.Background(), workers, tasks, func(w int, task Task) bool {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d out of range", w)
			}
			ran[index[task]].Add(1)
			return true
		}, Hooks{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestRunEmptyTaskList(t *testing.T) {
	if err := RunHooked(context.Background(), 4, nil, func(int, Task) bool { return true }, Hooks{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCancelled(t *testing.T) {
	g := graph.ChungLu(400, 3000, 2.3, 3)
	tasks := Expand(g, 0)
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	err := RunHooked(ctx, 4, tasks, func(w int, task Task) bool {
		if executed.Add(1) == 10 {
			cancel()
		}
		return true
	}, Hooks{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n >= int64(len(tasks)) {
		t.Fatalf("cancellation did not cut the run short (%d/%d)", n, len(tasks))
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

// TestRunJoinsWorkers holds the runtime half of the goroutine-leak invariant
// for the worker pool (flexlint's goroleak holds the static half): when Run
// returns — to completion or cancelled mid-run — no task function is still
// executing and every worker goroutine is gone.
func TestRunJoinsWorkers(t *testing.T) {
	g := graph.ChungLu(400, 3000, 2.3, 3)
	tasks := Expand(g, 0)
	before := runtime.NumGoroutine()
	for _, cancelAt := range []int64{0, 10} { // 0: never, run to completion
		ctx, cancel := context.WithCancel(context.Background())
		var executed, inFlight atomic.Int64
		err := RunHooked(ctx, 8, tasks, func(int, Task) bool {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			if executed.Add(1) == cancelAt {
				cancel()
			}
			runtime.Gosched()
			return true
		}, Hooks{})
		cancel()
		if n := inFlight.Load(); n != 0 {
			t.Errorf("cancelAt=%d: Run returned with %d task functions still executing", cancelAt, n)
		}
		var want error
		if cancelAt > 0 {
			want = context.Canceled
		}
		if err != want {
			t.Errorf("cancelAt=%d: err = %v, want %v", cancelAt, err, want)
		}
	}
	goroutinesReturnTo(t, before)
}

// TestRunReturnsTaskPanic: a panicking task stops the run instead of the process.
// Run returns the first panic as a *PanicError with the stack of the panic site,
// no task runs twice, the other workers retire at their next task boundary and
// every goroutine is joined — plain and sharded placement alike.
func TestRunReturnsTaskPanic(t *testing.T) {
	g := graph.ChungLu(400, 3000, 2.3, 3)
	tasks := Expand(g, 8)
	index := map[Task]int{}
	for i, task := range tasks {
		index[task] = i
	}
	before := runtime.NumGoroutine()
	for _, sharded := range []bool{false, true} {
		runs := make([]atomic.Int32, len(tasks))
		var executed atomic.Int64
		fn := func(_ int, task Task) bool {
			runs[index[task]].Add(1)
			if executed.Add(1) == 20 {
				panic("boom at task 20")
			}
			runtime.Gosched()
			return true
		}
		var err error
		if sharded {
			err = RunSharded(context.Background(), 8, tasks, quarterMap(g.NumVertices()), fn, Hooks{})
		} else {
			err = RunHooked(context.Background(), 8, tasks, fn, Hooks{})
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom at task 20" || !bytes.Contains(pe.Stack, []byte("TestRunReturnsTaskPanic")) {
			t.Fatalf("sharded=%v: err = %v, want a PanicError carrying the value and the panic site's stack", sharded, err)
		}
		if n := executed.Load(); n >= int64(len(tasks)) {
			t.Errorf("sharded=%v: the panic did not cut the run short (%d/%d)", sharded, n, len(tasks))
		}
		for i := range runs {
			if n := runs[i].Load(); n > 1 {
				t.Errorf("sharded=%v: task %d ran %d times", sharded, i, n)
			}
		}
	}
	goroutinesReturnTo(t, before)
}

func TestRunStopsWhenFnReturnsFalse(t *testing.T) {
	g := graph.ChungLu(400, 3000, 2.3, 3)
	tasks := Expand(g, 0)
	var executed atomic.Int64
	err := RunHooked(context.Background(), 4, tasks, func(w int, task Task) bool {
		return executed.Add(1) < 5
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n >= int64(len(tasks)) {
		t.Fatalf("fn=false did not halt the run (%d/%d)", n, len(tasks))
	}
}

func TestRunHookedOnTaskFiresPerExecution(t *testing.T) {
	g := graph.ChungLu(300, 2400, 2.3, 9)
	tasks := Expand(g, 16)
	OrderByDegreeDesc(g, tasks)
	var executed, observed atomic.Int64
	seen := make([]atomic.Int32, len(tasks))
	index := map[Task]int{}
	for i, task := range tasks {
		index[task] = i
	}
	h := Hooks{OnTask: func(w int, task Task) {
		observed.Add(1)
		seen[index[task]].Add(1)
	}}
	err := RunHooked(context.Background(), 8, tasks, func(w int, task Task) bool {
		executed.Add(1)
		return true
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Load() != executed.Load() || observed.Load() != int64(len(tasks)) {
		t.Fatalf("OnTask fired %d times for %d executions of %d tasks",
			observed.Load(), executed.Load(), len(tasks))
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("task %d observed %d times", i, n)
		}
	}
}

func TestRunHookedOnTaskFiresForHaltingTask(t *testing.T) {
	// The task whose fn returns false was still executed (partially), so the
	// live-progress feed must count it — OnTask fires before the halt.
	g := graph.ChungLu(300, 2400, 2.3, 9)
	tasks := Expand(g, 0)
	var executed, observed atomic.Int64
	h := Hooks{OnTask: func(int, Task) { observed.Add(1) }}
	err := RunHooked(context.Background(), 1, tasks, func(int, Task) bool {
		return executed.Add(1) < 5
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Load() != executed.Load() {
		t.Fatalf("OnTask fired %d times for %d executions", observed.Load(), executed.Load())
	}
}
