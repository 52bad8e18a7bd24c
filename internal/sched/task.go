// Package sched is the shared task-generation and scheduling runtime that
// sits under both execution layers: the CPU engine (internal/core) and the
// cycle-level accelerator model (internal/sim). It owns two concerns the
// paper assigns to the global task scheduler of §IV:
//
//   - task expansion — turning the vertex set into schedulable units,
//     slicing hub vertices into several independent sub-tasks so one
//     power-law hub cannot serialize a whole worker or PE;
//   - task dispatch — for the CPU engine, one shared cursor over the
//     degree-descending task list (greedy longest-processing-time-first
//     list scheduling: an idle worker claims the next task), with
//     first-class context cancellation. The simulator keeps its own
//     deterministic event-driven dispatch — the same policy, simulator.nextTask
//     — and consumes the same task list.
package sched

import "repro/internal/graph"

// All marks a task that covers the full level-1 adjacency of its vertex.
const All = -1

// Task is one schedulable unit of mining work: a start vertex and, when hub
// slicing is enabled, the half-open level-1 adjacency element range
// [Lo, Hi) it covers. Hi == All means the task spans the whole adjacency.
type Task struct {
	V0     graph.VID
	Lo, Hi int
}

// Sliced reports whether the task is restricted to an adjacency sub-range.
func (t Task) Sliced() bool { return t.Hi >= 0 }

// Expand turns the vertex set of g into the task list, splitting each vertex
// whose adjacency exceeds slice elements into ceil(degree/slice) sub-tasks
// (the §IV task dispatch generalized with hub slicing). slice <= 0 yields
// one whole-vertex task per vertex.
func Expand(g graph.Store, slice int) []Task {
	n := g.NumVertices()
	if slice <= 0 {
		tasks := make([]Task, n)
		for v := 0; v < n; v++ {
			tasks[v] = Task{V0: graph.VID(v), Lo: 0, Hi: All}
		}
		return tasks
	}
	tasks := make([]Task, 0, n)
	for v := 0; v < n; v++ {
		deg := g.Degree(graph.VID(v))
		if deg <= slice {
			tasks = append(tasks, Task{V0: graph.VID(v), Lo: 0, Hi: All})
			continue
		}
		for lo := 0; lo < deg; lo += slice {
			hi := lo + slice
			if hi > deg {
				hi = deg
			}
			tasks = append(tasks, Task{V0: graph.VID(v), Lo: lo, Hi: hi})
		}
	}
	return tasks
}

// OrderByDegreeDesc reorders tasks heaviest-start-vertex-first (the LPT
// order): claimed front to back by whichever worker is idle, the heavy tasks
// start first and the cheap tail absorbs imbalance. The order is stable, so
// sub-tasks of one hub stay adjacent and keep their Lo order.
//
// It is a counting sort on degree, O(len(tasks) + MaxDegree) with one Degree
// call per task, applied in place through a 4-byte-per-task destination
// index — no second task slice is allocated.
func OrderByDegreeDesc(g graph.Store, tasks []Task) {
	if len(tasks) < 2 {
		return
	}
	// next[d] is first the number of tasks of degree d, then the output
	// slot of the next one; dest[i] is first task i's degree, then its slot.
	next := make([]int32, g.MaxDegree()+1)
	dest := make([]int32, len(tasks))
	for i := range tasks {
		d := g.Degree(tasks[i].V0)
		dest[i] = int32(d)
		next[d]++
	}
	var slot int32
	for d := len(next) - 1; d >= 0; d-- {
		slot, next[d] = slot+next[d], slot
	}
	for i, d := range dest {
		dest[i] = next[d]
		next[d]++
	}
	// Follow each cycle of the permutation: every swap puts one task into
	// its final slot.
	for i := range tasks {
		for j := dest[i]; int(j) != i; j = dest[i] {
			tasks[i], tasks[j] = tasks[j], tasks[i]
			dest[i], dest[j] = dest[j], j
		}
	}
}
