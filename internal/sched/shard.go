package sched

// Shard-local scheduling: when the graph lives in a sharded store
// (graph.Sharded), a root task's first — and usually dominant — adjacency
// read hits its start vertex's shard. Seeding each task onto workers bound
// to that shard's group keeps a worker's page working set inside one shard
// file, and demoting cross-group victims to a second steal tier keeps it
// that way until local work runs dry. Cross-shard steals remain possible
// (work conservation beats locality at the tail) but become a counted,
// observable event instead of the common case.

import (
	"context"

	"repro/internal/graph"
)

// ShardMap is the scheduler's view of a partitioned vertex space. It is the
// seam to graph.Sharded (which implements it) without a package dependency
// on any particular store.
type ShardMap interface {
	// NumShards returns the number of partitions.
	NumShards() int
	// ShardOf returns the partition owning vertex v.
	ShardOf(v graph.VID) int
}

// WorkerGroups assigns each of workers a locality group, with
// min(workers, shards) groups total: evenly sized, contiguous, and stable.
// Shard s maps to group s*G/shards (see shardGroup), so with more workers
// than shards a group is the worker pool of one shard, and with more shards
// than workers each group serves a contiguous shard range. The mapping is
// exported so hook consumers can classify thief/victim pairs exactly the way
// the scheduler does.
func WorkerGroups(workers, shards int) []int {
	groups := workers
	if shards < groups {
		groups = shards
	}
	if groups < 1 {
		groups = 1
	}
	out := make([]int, workers)
	for w := range out {
		out[w] = w * groups / workers
	}
	return out
}

// shardGroup maps shard s into one of `groups` contiguous shard ranges.
func shardGroup(s, shards, groups int) int { return s * groups / shards }

// StealLocal and StealCross name the tier argument of Hooks.OnStealTier.
const (
	StealLocal = 0 // thief and victim share a locality group
	StealCross = 1 // thief crossed into another group's shards
)

// RunSharded is RunHooked with a locality tier. Tasks are dealt to the
// worker group owning their start vertex's shard (round-robin within the
// group, preserving the degree-descending interleave), and an idle worker
// sweeps victims in its own group before crossing groups. Execution
// semantics are identical to RunHooked: every task runs at most once, exactly
// once without cancellation, and fn returning false halts the run.
func RunSharded(ctx context.Context, workers int, tasks []Task, sm ShardMap, fn func(worker int, t Task) bool, h Hooks) error {
	if workers < 1 {
		workers = 1
	}
	deques, order, groupOf := placeSharded(workers, tasks, sm)
	return runLoop(ctx, deques, order, groupOf, int64(len(tasks)), fn, h)
}

// placeSharded is RunSharded's whole locality policy: the seeded deques, each
// worker's victim sweep order, and the worker → group map steals are
// classified by.
func placeSharded(workers int, tasks []Task, sm ShardMap) ([]deque, [][]int, []int) {
	shards := sm.NumShards()
	groupOf := WorkerGroups(workers, shards)
	groups := groupOf[workers-1] + 1

	deques := make([]deque, workers)
	for i := range deques {
		deques[i].ts = make([]Task, 0, len(tasks)/workers+1)
	}
	// Per-group worker lists plus a rotating cursor each, so the global
	// heavy-to-light task order stays interleaved inside every group.
	members := make([][]int, groups)
	for w, g := range groupOf {
		members[g] = append(members[g], w)
	}
	cursor := make([]int, groups)
	for _, t := range tasks {
		g := shardGroup(sm.ShardOf(t.V0), shards, groups)
		ws := members[g]
		w := ws[cursor[g]%len(ws)]
		cursor[g]++
		deques[w].ts = append(deques[w].ts, t)
	}

	// Victim sweep order per worker: own group first (cyclic from self+1
	// within the group), then the remaining workers (cyclic).
	order := make([][]int, workers)
	for w := 0; w < workers; w++ {
		ord := make([]int, 0, workers-1)
		for off := 1; off < workers; off++ {
			if vi := (w + off) % workers; groupOf[vi] == groupOf[w] {
				ord = append(ord, vi)
			}
		}
		for off := 1; off < workers; off++ {
			if vi := (w + off) % workers; groupOf[vi] != groupOf[w] {
				ord = append(ord, vi)
			}
		}
		order[w] = ord
	}
	return deques, order, groupOf
}
