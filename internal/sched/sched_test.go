package sched

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
// for the worker pool (internal/lint's goroleak holds the static half): when Run
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
// every goroutine is joined.
func TestRunReturnsTaskPanic(t *testing.T) {
	g := graph.ChungLu(400, 3000, 2.3, 3)
	tasks := Expand(g, 8)
	index := map[Task]int{}
	for i, task := range tasks {
		index[task] = i
	}
	before := runtime.NumGoroutine()
	runs := make([]atomic.Int32, len(tasks))
	var executed atomic.Int64
	err := RunHooked(context.Background(), 8, tasks, func(_ int, task Task) bool {
		runs[index[task]].Add(1)
		if executed.Add(1) == 20 {
			panic("boom at task 20")
		}
		runtime.Gosched()
		return true
	}, Hooks{})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom at task 20" || !bytes.Contains(pe.Stack, []byte("TestRunReturnsTaskPanic")) {
		t.Fatalf("err = %v, want a PanicError carrying the value and the panic site's stack", err)
	}
	if n := executed.Load(); n >= int64(len(tasks)) {
		t.Errorf("the panic did not cut the run short (%d/%d)", n, len(tasks))
	}
	for i := range runs {
		if n := runs[i].Load(); n > 1 {
			t.Errorf("task %d ran %d times", i, n)
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

// positions returns n distinct tasks whose V0 is their position in the list, so
// a task function can tell which position it was handed.
func positions(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{V0: graph.VID(i), Hi: All}
	}
	return tasks
}

// TestRunClaimsInListOrder pins the first property core's modelListMakespan
// assumes: tasks leave the list front to back. One worker executes them in
// slice order. With 8 workers every worker's claimed positions strictly
// increase, their union is every position once, and when position i starts
// all but at most workers-1 earlier positions have started — and all of that
// while the worker holding position 0 is stalled, because no position belongs
// to a worker before it claims it.
func TestRunClaimsInListOrder(t *testing.T) {
	tasks := positions(500)
	var order []int
	if err := RunHooked(context.Background(), 1, tasks, func(_ int, task Task) bool {
		order = append(order, int(task.V0))
		return true
	}, Hooks{}); err != nil {
		t.Fatal(err)
	}
	for i, pos := range order {
		if pos != i {
			t.Fatalf("one worker executed position %d at step %d", pos, i)
		}
	}
	if len(order) != len(tasks) {
		t.Fatalf("one worker executed %d of %d tasks", len(order), len(tasks))
	}

	const workers = 8
	claimed := make([][]int, workers) // claimed[w] is written by worker w only
	var started atomic.Int64
	var skipped atomic.Bool // report the first skip only
	err := RunHooked(context.Background(), workers, tasks, func(w int, task Task) bool {
		pos := int(task.V0)
		if before := started.Add(1) - 1; int64(pos)-before > workers-1 && skipped.CompareAndSwap(false, true) {
			t.Errorf("position %d started after only %d others: claims skipped ahead", pos, before)
		}
		claimed[w] = append(claimed[w], pos)
		if pos == 0 {
			for deadline := time.Now().Add(5 * time.Second); started.Load() < int64(len(tasks)); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("%d of %d positions started while position 0's worker was stalled", started.Load(), len(tasks))
					break
				}
			}
		}
		return true
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, len(tasks))
	for w, ps := range claimed {
		for k, pos := range ps {
			if k > 0 && pos <= ps[k-1] {
				t.Fatalf("worker %d claimed position %d after %d", w, pos, ps[k-1])
			}
			seen[pos]++
		}
	}
	for pos, n := range seen {
		if n != 1 {
			t.Fatalf("position %d claimed %d times", pos, n)
		}
	}
}

// TestRunIsGreedy pins the second property: the next task goes to whichever
// worker is free first. Every task blocks on its own gate; once the K workers
// hold positions 0..K-1, releasing gates in a shuffled order must hand
// position K+i to the worker whose gate was released i-th — never to another
// worker, never a later position, and never before the release.
func TestRunIsGreedy(t *testing.T) {
	const workers, n = 6, 40
	tasks := positions(n)
	type claim struct{ worker, pos int }
	claims := make(chan claim, n)
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	errc := make(chan error, 1)
	go func() {
		errc <- RunHooked(context.Background(), workers, tasks, func(w int, task Task) bool {
			claims <- claim{w, int(task.V0)}
			<-gates[task.V0]
			return true
		}, Hooks{})
	}()
	next := func() claim {
		select {
		case c := <-claims:
			return c
		case <-time.After(5 * time.Second):
			t.Fatal("no worker claimed the next task")
			panic("unreachable")
		}
	}
	var held []claim // every worker is blocked on the gate of one of these
	for len(held) < workers {
		c := next()
		if c.pos >= workers {
			t.Fatalf("position %d claimed while %d workers were still free", c.pos, workers-len(held))
		}
		held = append(held, c)
	}
	rng := rand.New(rand.NewSource(9))
	for want := workers; len(held) > 0; want++ {
		k := rng.Intn(len(held))
		freed := held[k]
		select {
		case c := <-claims:
			t.Fatalf("worker %d claimed position %d while every worker was blocked", c.worker, c.pos)
		default:
		}
		close(gates[freed.pos])
		if want >= n { // the list is drained: the freed worker retires
			held = slices.Delete(held, k, k+1)
			continue
		}
		if held[k] = next(); held[k] != (claim{freed.worker, want}) {
			t.Fatalf("after worker %d was freed, worker %d claimed position %d; want worker %d on position %d",
				freed.worker, held[k].worker, held[k].pos, freed.worker, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
