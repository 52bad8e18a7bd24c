//go:build unix

package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// storageBackends materializes g in every storage backend: the heap graph
// itself, a zero-copy mmap of its binary file, and mmap-backed shard
// directories at 1 and 4 shards. Cleanup closes the mapped stores.
func storageBackends(t *testing.T, g *graph.Graph) map[string]graph.Store {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	if err := graph.SaveBinary(bin, g); err != nil {
		t.Fatal(err)
	}
	m, err := graph.OpenMapped(bin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	stores := map[string]graph.Store{"heap": g, "mmap": m}
	for _, shards := range []int{1, 4} {
		sdir := filepath.Join(dir, "shards", string(rune('0'+shards)))
		if err := graph.WriteSharded(sdir, g, shards); err != nil {
			t.Fatal(err)
		}
		s, err := graph.OpenSharded(sdir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if shards == 1 {
			stores["shard1"] = s
		} else {
			stores["shard4"] = s
		}
	}
	return stores
}

// equivPlans compiles the workload catalog the equivalence suite mines:
// the full 3-motif census, two subgraph-listing patterns, a generic 4-clique
// plan, and (for oriented inputs) the DAG clique plan.
func equivPlans(t *testing.T, dag bool) map[string]*plan.Plan {
	t.Helper()
	plans := map[string]*plan.Plan{}
	compile := func(name string, pl *plan.Plan, err error) {
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		plans[name] = pl
	}
	if dag {
		pl, err := plan.CompileCliqueDAG(4)
		compile("4-CL-dag", pl, err)
		return plans
	}
	pl, err := plan.CompileMotifs(3, plan.Options{})
	compile("3-MC", pl, err)
	pl, err = plan.Compile(pattern.Diamond(), plan.Options{})
	compile("SL-diamond", pl, err)
	pl, err = plan.Compile(pattern.FourCycle(), plan.Options{})
	compile("SL-4cycle", pl, err)
	pl, err = plan.Compile(pattern.KClique(4), plan.Options{})
	compile("4-CL-sym", pl, err)
	return plans
}

// TestStorageBackendEquivalence is the acceptance suite: for every workload
// in the catalog, Counts AND the full Stats block must be DeepEqual across
// heap, mmap, 1-shard, and 4-shard backends — storage (and shard-local
// placement) may move bytes and tasks around, but never the computation.
func TestStorageBackendEquivalence(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"er":   graph.ErdosRenyi(400, 3000, 17),
		"rmat": graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 5),
	}
	opts := []Options{
		{Threads: 4},
		{Threads: 8, Kernel: KernelMergeOnly, SliceElems: 16},
	}
	for gname, g := range inputs {
		for dag := 0; dag < 2; dag++ {
			base := g
			if dag == 1 {
				base = g.Orient()
			}
			stores := storageBackends(t, base)
			for pname, pl := range equivPlans(t, dag == 1) {
				for oi, o := range opts {
					want, err := Mine(stores["heap"], pl, o)
					if err != nil {
						t.Fatal(err)
					}
					for sname, st := range stores {
						if sname == "heap" {
							continue
						}
						got, err := Mine(st, pl, o)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Counts, want.Counts) {
							t.Fatalf("%s/%s/opt%d: %s counts %v != heap %v", gname, pname, oi, sname, got.Counts, want.Counts)
						}
						if !reflect.DeepEqual(got.Stats, want.Stats) {
							t.Fatalf("%s/%s/opt%d: %s stats diverge from heap:\n%+v\n%+v", gname, pname, oi, sname, got.Stats, want.Stats)
						}
					}
				}
			}
		}
	}
}

// TestStorageBackendCancellation checks cancellation-with-partial-results
// works on every backend: the run returns the context error, and the partial
// counts never exceed the full run's.
func TestStorageBackendCancellation(t *testing.T) {
	pl, err := plan.CompileMotifs(3, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancelOnEveryBackend(t, graph.RMAT(11, 40000, 0.57, 0.19, 0.19, 23), pl)
}

// cancelOnEveryBackend mines pl on every backend of g, cancelling after the
// tenth task, and returns the uncancelled heap run it held the partial results to.
func cancelOnEveryBackend(t *testing.T, g *graph.Graph, pl *plan.Plan) Result {
	t.Helper()
	stores := storageBackends(t, g)
	full, err := Mine(stores["heap"], pl, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range stores {
		var fired atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		o := Options{Threads: 4, OnTaskDone: func(w int, matches int64) {
			if fired.Add(1) == 10 {
				cancel()
			}
		}}
		got, err := MineContext(ctx, st, pl, o)
		cancel()
		if err == nil {
			// The run may legitimately finish before poll latency bites on
			// tiny inputs, but these fixtures are large enough that it must not.
			t.Fatalf("%s: cancelled run returned nil error", name)
		}
		for i := range got.Counts {
			if got.Counts[i] < 0 || got.Counts[i] > full.Counts[i] {
				t.Fatalf("%s: partial count %d = %d outside [0, %d]", name, i, got.Counts[i], full.Counts[i])
			}
		}
		if got.Stats.Tasks == 0 || got.Stats.Tasks >= full.Stats.Tasks {
			t.Fatalf("%s: cancelled run executed %d tasks, want partial progress below %d", name, got.Stats.Tasks, full.Stats.Tasks)
		}
	}
	return full
}

// TestMappedMineConstantHeap is the acceptance bound end-to-end: mining a
// multi-megabyte graph through OpenMapped must allocate per-worker scratch
// only — O(maxDegree), not O(|E|) — so heap growth stays far below the file
// size.
func TestMappedMineConstantHeap(t *testing.T) {
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mappedMineConstantHeap(t, graph.RMAT(14, 250_000, 0.57, 0.19, 0.19, 11), pl, Options{Threads: 2, Kernel: KernelMergeOnly})
}

// mappedMineConstantHeap mines pl over g's file through OpenMapped, holds the
// count to the heap run's and the heap growth to a quarter of the file — workers
// allocate O(K · maxDegree) scratch, far below the adjacency arrays of a file of
// several MB —, and returns the mapped run.
func mappedMineConstantHeap(t *testing.T, g *graph.Graph, pl *plan.Plan, o Options) Result {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveBinary(bin, g); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(bin)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(g, pl, o) // the reference count, before the MemStats window opens
	if err != nil {
		t.Fatal(err)
	}
	g = nil
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := graph.OpenMapped(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := Mine(m, pl, o)
	if err != nil {
		t.Fatal(err)
	}
	// Collect transient run-time garbage (task lists, sort scratch) so the
	// delta measures what mining through the mapped store keeps live — which
	// must not include any copy of the adjacency arrays.
	runtime.GC()
	runtime.ReadMemStats(&after)
	if res.Count() != want.Count() {
		t.Fatalf("mapped mine count %d != heap count %d", res.Count(), want.Count())
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if bound := fi.Size() / 4; grew > bound {
		t.Fatalf("mapped mine grew heap by %d bytes for a %d-byte graph; want < %d", grew, fi.Size(), bound)
	}
	return res
}

// TestStorageBackendListEquivalence drives the listing path (per-embedding
// visitor) through a mapped store, confirming visitors see identical
// embeddings regardless of backend.
func TestStorageBackendListEquivalence(t *testing.T) {
	g := graph.ErdosRenyi(200, 1200, 29)
	stores := storageBackends(t, g)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := listed(t, stores["heap"], pl, Options{Threads: 4})
	for _, name := range []string{"mmap", "shard1", "shard4"} {
		if got, _ := listed(t, stores[name], pl, Options{Threads: 4}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: listed embeddings differ from heap (%d vs %d distinct)", name, len(got), len(want))
		}
	}
}

// listed lists pl over st and returns the multiset of embeddings the visitor saw.
func listed(t *testing.T, st graph.Store, pl *plan.Plan, o Options) (map[string]int, Result) {
	t.Helper()
	seen := map[string]int{}
	var mu sync.Mutex
	res, err := List(st, pl, o, func(emb []graph.VID, pat int) {
		mu.Lock()
		seen[fmt.Sprint(emb)]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return seen, res
}
