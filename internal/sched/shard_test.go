package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// testShardMap partitions vertex IDs by explicit cut points.
type testShardMap struct {
	cuts []graph.VID // len shards+1
}

func (m testShardMap) NumShards() int { return len(m.cuts) - 1 }
func (m testShardMap) ShardOf(v graph.VID) int {
	for s := 0; s < m.NumShards(); s++ {
		if v < m.cuts[s+1] {
			return s
		}
	}
	return m.NumShards() - 1
}

// quarterMap splits [0, n) into 4 equal vertex ranges.
func quarterMap(n int) testShardMap {
	q := graph.VID(n / 4)
	return testShardMap{cuts: []graph.VID{0, q, 2 * q, 3 * q, graph.VID(n)}}
}

func TestWorkerGroups(t *testing.T) {
	cases := []struct {
		workers, shards int
		want            []int
	}{
		{8, 4, []int{0, 0, 1, 1, 2, 2, 3, 3}},
		{4, 4, []int{0, 1, 2, 3}},
		{2, 4, []int{0, 1}},
		{3, 4, []int{0, 1, 2}},
		{5, 2, []int{0, 0, 0, 1, 1}},
		{1, 4, []int{0}},
		{4, 1, []int{0, 0, 0, 0}},
	}
	for _, tc := range cases {
		got := WorkerGroups(tc.workers, tc.shards)
		if len(got) != len(tc.want) {
			t.Fatalf("WorkerGroups(%d,%d) len = %d", tc.workers, tc.shards, len(got))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("WorkerGroups(%d,%d) = %v, want %v", tc.workers, tc.shards, got, tc.want)
			}
		}
		// Every group up to the max must be inhabited, and every shard's
		// group must exist among the workers.
		groups := got[len(got)-1] + 1
		for s := 0; s < tc.shards; s++ {
			if g := shardGroup(s, tc.shards, groups); g < 0 || g >= groups {
				t.Fatalf("shard %d maps to group %d of %d", s, g, groups)
			}
		}
	}
}

// TestRunShardedExactlyOnce checks the execution contract: every task runs
// exactly once, no matter how stealing moves work around.
func TestRunShardedExactlyOnce(t *testing.T) {
	const n = 4000
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{V0: graph.VID(i % 1024), Lo: i, Hi: i + 1}
	}
	for _, workers := range []int{1, 3, 8} {
		var mu sync.Mutex
		seen := make(map[Task]int, n)
		err := RunSharded(context.Background(), workers, tasks, quarterMap(1024),
			func(w int, tk Task) bool {
				mu.Lock()
				seen[tk]++
				mu.Unlock()
				return true
			}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: %d distinct tasks ran, want %d", workers, len(seen), n)
		}
		for tk, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: task %+v ran %d times", workers, tk, c)
			}
		}
	}
}

func TestRunShardedCancellation(t *testing.T) {
	tasks := make([]Task, 2000)
	for i := range tasks {
		tasks[i] = Task{V0: graph.VID(i % 256), Lo: 0, Hi: All}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := RunSharded(ctx, 4, tasks, quarterMap(256),
		func(w int, tk Task) bool {
			if ran.Add(1) == 100 {
				cancel()
			}
			return ctx.Err() == nil
		}, Hooks{})
	if err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if got := ran.Load(); got < 100 || got >= 2000 {
		t.Fatalf("ran %d tasks; want partial progress in [100, 2000)", got)
	}
}

// TestRunShardedTierClassification checks OnStealTier agrees with the
// exported WorkerGroups mapping for every reported steal.
func TestRunShardedTierClassification(t *testing.T) {
	const workers = 8
	sm := quarterMap(1024)
	groupOf := WorkerGroups(workers, sm.NumShards())
	tasks := make([]Task, 3000)
	for i := range tasks {
		tasks[i] = Task{V0: graph.VID((i * 31) % 1024), Lo: 0, Hi: All}
	}
	var bad atomic.Int64
	var steals atomic.Int64
	h := Hooks{OnStealTier: func(thief, victim, n, tier int) {
		steals.Add(1)
		want := StealLocal
		if groupOf[thief] != groupOf[victim] {
			want = StealCross
		}
		if tier != want {
			bad.Add(1)
		}
	}}
	// Uneven work so stealing actually happens.
	work := func(w int, tk Task) bool {
		spin := int(tk.V0%17) * 300
		for i := 0; i < spin; i++ {
			_ = i * i
		}
		return true
	}
	for run := 0; run < 4; run++ {
		if err := RunSharded(context.Background(), workers, tasks, sm, work, h); err != nil {
			t.Fatal(err)
		}
	}
	if bad.Load() != 0 {
		t.Fatalf("%d of %d steals misclassified", bad.Load(), steals.Load())
	}
}

// TestMergeHooks checks fan-out order and that absent callbacks stay nil
// (so the scheduler's per-event nil test keeps skipping them).
func TestMergeHooks(t *testing.T) {
	if h := MergeHooks(); h.OnSteal != nil || h.OnStealTier != nil || h.OnTask != nil {
		t.Fatal("MergeHooks() of nothing must be the zero Hooks")
	}
	var log []string
	a := Hooks{
		OnSteal:     func(thief, victim, n int) { log = append(log, "a-steal") },
		OnStealTier: func(thief, victim, n, tier int) { log = append(log, "a-tier") },
	}
	b := Hooks{
		OnSteal: func(thief, victim, n int) { log = append(log, "b-steal") },
		OnTask:  func(w int, tk Task) { log = append(log, "b-task") },
	}
	m := MergeHooks(a, b)
	m.OnSteal(1, 0, 2)
	m.OnStealTier(1, 0, 2, StealCross)
	m.OnTask(0, Task{})
	want := []string{"a-steal", "b-steal", "a-tier", "b-task"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// arcBalancedMap cuts the vertex space into `shards` ranges with roughly
// equal arc counts — the same degree-aware partition graph.WriteSharded
// uses. Equal-vertex quarters would pile all of an RMAT graph's arcs into
// shard 0 and leave nothing local to balance.
func arcBalancedMap(g *graph.Graph, shards int) testShardMap {
	cuts := make([]graph.VID, shards+1)
	cuts[shards] = graph.VID(g.NumVertices())
	total := g.NumArcs()
	v := 0
	for s := 1; s < shards; s++ {
		target := total * int64(s) / int64(shards)
		for v < g.NumVertices() && g.Row[v+1] < target {
			v++
		}
		cuts[s] = graph.VID(v)
	}
	return testShardMap{cuts: cuts}
}

// TestShardLocalSeedingReducesCrossSteals pins the two placement properties
// that keep steals inside a shard group, on a 4-shard RMAT stand-in for
// several worker counts: every task is first queued on a worker of the group
// owning its start vertex's shard, and every worker's victim sweep visits all
// of its own group before any worker of another.
func TestShardLocalSeedingReducesCrossSteals(t *testing.T) {
	g := graph.RMAT(11, 16000, 0.57, 0.19, 0.19, 42)
	sm := arcBalancedMap(g, 4)
	tasks := Expand(g, 32)
	OrderByDegreeDesc(g, tasks)
	for _, workers := range []int{1, 3, 4, 8, 11} {
		deques, order, groupOf := placeSharded(workers, tasks, sm)
		groups := groupOf[workers-1] + 1
		queued := 0
		for w := range deques {
			for _, tk := range deques[w].ts {
				if want := shardGroup(sm.ShardOf(tk.V0), sm.NumShards(), groups); groupOf[w] != want {
					t.Fatalf("workers=%d: task %+v (shard group %d) seeded on worker %d of group %d",
						workers, tk, want, w, groupOf[w])
				}
			}
			queued += len(deques[w].ts)
		}
		if queued != len(tasks) {
			t.Fatalf("workers=%d: %d tasks seeded, want %d", workers, queued, len(tasks))
		}
		for w, ord := range order {
			seen := map[int]bool{w: true}
			crossed := false
			for _, v := range ord {
				if seen[v] {
					t.Fatalf("workers=%d: worker %d sweeps %v: victim %d repeated or self", workers, w, ord, v)
				}
				seen[v] = true
				if local := groupOf[v] == groupOf[w]; !local {
					crossed = true
				} else if crossed {
					t.Fatalf("workers=%d: worker %d sweeps %v: local victim %d after a cross-group one", workers, w, ord, v)
				}
			}
			if len(seen) != workers {
				t.Fatalf("workers=%d: worker %d sweeps %v: not every other worker", workers, w, ord)
			}
		}
	}
}
