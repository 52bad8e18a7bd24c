//go:build unix

package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
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
