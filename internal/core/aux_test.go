//go:build unix

package core

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

func compileAux(t *testing.T, p *pattern.Pattern) *plan.Plan {
	t.Helper()
	pl, err := plan.Compile(p, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestAuxModeCountInvariance is the correctness core: mined counts must be
// bit-identical across aux off/auto/on, for plans with directives (house,
// 5-motif census) and without (cliques), under both kernel policies.
func TestAuxModeCountInvariance(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"er":   graph.ErdosRenyi(300, 2400, 17),
		"rmat": graph.RMAT(9, 4500, 0.57, 0.19, 0.19, 5),
	}
	plans := map[string]*plan.Plan{
		"house": compileAux(t, pattern.House()),
		"4-CL":  compileAux(t, pattern.KClique(4)),
	}
	if pl, err := plan.CompileMotifs(4, plan.Options{}); err != nil {
		t.Fatal(err)
	} else {
		plans["4-MC"] = pl
	}
	for gname, g := range inputs {
		for pname, pl := range plans {
			for _, kernel := range []KernelPolicy{KernelAuto, KernelMergeOnly} {
				base := Options{Threads: 4, Kernel: kernel, SliceElems: 16}
				off, err := Mine(g, pl, base)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []AuxMode{AuxAuto, AuxOn} {
					o := base
					o.AuxGraph = mode
					got, err := Mine(g, pl, o)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Counts, off.Counts) {
						t.Fatalf("%s/%s/%v aux=%v counts %v != off %v",
							gname, pname, kernel, mode, got.Counts, off.Counts)
					}
					// Under auto house's v2 is a factor (decision 23): the loop a row was
					// looked up in is gone, so AuxAuto gates the spec off; AuxOn forces it.
					if gated := kernel == KernelAuto && mode == AuxAuto; pname == "house" && gated != (got.Stats.AuxBuilt == 0) {
						t.Errorf("%s/house/%v aux=%v built %d aux rows", gname, kernel, mode, got.Stats.AuxBuilt)
					}
					if pname == "4-CL" && got.Stats.AuxBuilt != 0 {
						t.Errorf("%s/4-CL aux=%v built %d aux rows; clique plans carry no directives",
							gname, mode, got.Stats.AuxBuilt)
					}
				}
			}
		}
	}
}

// TestAuxReuseDominatesBuilds checks the layer actually does its job on the
// house: within an activation the same extender row is looked up once per
// intermediate embedding, so reuses must outnumber builds on a dense input.
// Merge-only, where the intermediate v2 is still looped over: under auto it is a
// factor (decision 23) and every row is looked up once.
func TestAuxReuseDominatesBuilds(t *testing.T) {
	g := graph.RMAT(10, 9000, 0.57, 0.19, 0.19, 5)
	pl := compileAux(t, pattern.House())
	res, err := Mine(g, pl, Options{Threads: 4, Kernel: KernelMergeOnly, AuxGraph: AuxOn})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AuxBuilt == 0 || res.Stats.AuxReused <= res.Stats.AuxBuilt {
		t.Fatalf("house aux stats built=%d reused=%d; want reuse > build",
			res.Stats.AuxBuilt, res.Stats.AuxReused)
	}
	if res.Stats.AuxBytesPeak <= 0 {
		t.Fatalf("AuxBytesPeak = %d after %d builds", res.Stats.AuxBytesPeak, res.Stats.AuxBuilt)
	}
}

// TestAuxCrossBackendEquivalence: for each aux mode, Counts and the full
// Stats block (including the new Aux* counters and the max-merged byte peak)
// must be DeepEqual across heap/mmap/1-shard/4-shard and across worker
// counts 1/4/16 — materialization is per-task-deterministic, so scheduling
// must not show through. SliceElems is pinned so all legs share a task set.
func TestAuxCrossBackendEquivalence(t *testing.T) {
	g := graph.RMAT(9, 4000, 0.57, 0.19, 0.19, 5)
	stores := storageBackends(t, g)
	plans := map[string]*plan.Plan{"house": compileAux(t, pattern.House())}
	if pl, err := plan.CompileMotifs(4, plan.Options{}); err != nil {
		t.Fatal(err)
	} else {
		plans["4-MC"] = pl
	}
	for pname, pl := range plans {
		for _, mode := range []AuxMode{AuxOff, AuxAuto, AuxOn} {
			ref, err := Mine(stores["heap"], pl, Options{Threads: 4, SliceElems: 16, AuxGraph: mode})
			if err != nil {
				t.Fatal(err)
			}
			for sname, st := range stores {
				for _, threads := range []int{1, 4, 16} {
					got, err := Mine(st, pl, Options{Threads: threads, SliceElems: 16, AuxGraph: mode})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Counts, ref.Counts) {
						t.Fatalf("%s aux=%v %s/w%d counts %v != heap/w4 %v",
							pname, mode, sname, threads, got.Counts, ref.Counts)
					}
					if !reflect.DeepEqual(got.Stats, ref.Stats) {
						t.Fatalf("%s aux=%v %s/w%d stats diverge:\n%+v\n%+v",
							pname, mode, sname, threads, got.Stats, ref.Stats)
					}
				}
			}
		}
	}
}

// TestAuxCancellationMidMaterialization cancels a house run partway through
// on every backend with the aux layer on: the run must return the context
// error with sane partial counts, and — the leak check — every activation
// scope a worker opened must have been released on the unwind path, so the
// live-byte ledger reads zero.
func TestAuxCancellationMidMaterialization(t *testing.T) {
	g := graph.RMAT(11, 16000, 0.57, 0.19, 0.19, 23)
	stores := storageBackends(t, g)
	pl := compileAux(t, pattern.House())
	full, err := Mine(stores["heap"], pl, Options{Threads: 4, AuxGraph: AuxOn})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range stores {
		var fired atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		o := Options{Threads: 4, AuxGraph: AuxOn, OnTaskDone: func(w int, matches int64) {
			if fired.Add(1) == 10 {
				cancel()
			}
		}}
		got, err := MineContext(ctx, st, pl, o)
		cancel()
		if err == nil {
			t.Fatalf("%s: cancelled aux run returned nil error", name)
		}
		for i := range got.Counts {
			if got.Counts[i] < 0 || got.Counts[i] > full.Counts[i] {
				t.Fatalf("%s: partial count %d outside [0, %d]", name, got.Counts[i], full.Counts[i])
			}
		}
	}
	// Single-worker variant with direct access to the unwound state: drive
	// runTask with a pre-fired cancellation channel so the DFS stops inside
	// the aux subtree, then verify the scope ledger returned to zero.
	done := make(chan struct{})
	close(done)
	o := Options{Threads: 1, AuxGraph: AuxOn}.withDefaults()
	w := newWorker(g, lower(g, pl, o, false), o)
	w.ctxDone = done
	for _, task := range sched.Expand(g, 0)[:20] {
		w.runTask(task)
	}
	if w.auxLive != 0 {
		t.Fatalf("cancelled tasks leaked %d live aux bytes across task boundaries", w.auxLive)
	}
	for i := range w.aux {
		if w.aux[i].active || w.aux[i].liveBytes != 0 || len(w.aux[i].arena) != 0 {
			t.Fatalf("spec %d state not released after cancellation: %+v", i, w.aux[i])
		}
	}
}

// TestAuxScratchPooledAllocs holds the engine's zero-allocation invariant: a
// warmed worker runs whole tasks — kernel dispatch, c-map marks and scans, aux
// row builds, materializations and visitor calls included — without touching
// the heap, because every scratch buffer (levels, ping-pong, stamps, offsets,
// arena) is pooled in per-worker state and the map is allocated once in
// newWorker. It is the only check of that property
// (setops.TestKernelsZeroAlloc and cmap.TestMapZeroAlloc hold it below the
// engine), so it runs the configuration production uses — auto kernels, aux
// auto and on, whole-vertex and hub-sliced tasks — next to the merge-only one,
// and fails if the default legs miss the kernels their plans should reach:
// c-map accesses everywhere, no merge iteration at all on the clique plans
// (every chain of theirs is scannable or local, and a declined scan gallops),
// galloping where the skew still calls for it, local rows — position map, rows
// and candidate sets grown by the first tasks, none after — on the 4-clique.
func TestAuxScratchPooledAllocs(t *testing.T) {
	g := graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 5)
	var sink graph.VID
	visit := func(emb []graph.VID, _ int) { sink += emb[len(emb)-1] }
	legs := []struct {
		name  string
		o     Options
		slice int
	}{
		{"merge/aux-on", Options{Threads: 1, Kernel: KernelMergeOnly, AuxGraph: AuxOn}, 0},
		{"default/aux-auto", Options{Threads: 1, AuxGraph: AuxAuto}, 0},
		{"default/aux-auto/sliced", Options{Threads: 1, AuxGraph: AuxAuto}, 32},
		{"default/aux-on", Options{Threads: 1, AuxGraph: AuxOn}, 0},
		{"default/aux-on/sliced", Options{Threads: 1, AuxGraph: AuxOn}, 32},
	}
	// House: aux rows plus NotEqual at an interior level and at the leaf.
	// 4-path: NotEqual on plain adjacency at both (the in-place ancestor cut
	// of materialize and the membership adjustment of count) and no set
	// operation at all. Diamond: no NotEqual, so the last kernel writes the
	// level buffer directly. 4-clique: symmetry bounds on every level.
	// Triangle: one scannable chain, one marked level. Induced 4-cycle:
	// difference kernels and a two-operation chain (one masked scan under the
	// default legs). Each runs as Mine (count-only leaves) and as List
	// (leafVisit).
	induced, err := plan.Compile(pattern.KCycle(4), plan.Options{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	path := pattern.KPath(4) // the one plan with no set operation to dispatch
	plans := []*plan.Plan{induced}
	for _, p := range []*pattern.Pattern{pattern.House(), path, pattern.Diamond(), pattern.KClique(4), pattern.Triangle()} {
		plans = append(plans, compileAux(t, p))
	}
	for _, pl := range plans {
		p := pl.Patterns[0]
		for _, leg := range legs {
			// RMAT puts the hubs at the low IDs, so the first tasks are
			// the heavy ones.
			tasks := sched.Expand(g, leg.slice)[:64]
			for _, listing := range []bool{false, true} {
				o := leg.o.withDefaults()
				w := newWorker(g, lower(g, pl, o, listing), o)
				if listing {
					w.visit = visit
				}
				batch := func() {
					for _, task := range tasks {
						w.runTask(task)
					}
				}
				batch() // warm: grow arenas/levels to steady state
				if avg := testing.AllocsPerRun(3, batch); avg > 0 {
					t.Errorf("%s %s listing=%v: warmed worker allocates %.1f times per task batch; scratch must be pooled", p.Name(), leg.name, listing, avg)
				}
				if o.Kernel != KernelAuto || p.Name() == path.Name() {
					continue
				}
				if w.cm == nil || w.stats.BitmapProbes == 0 {
					t.Errorf("%s %s listing=%v: c-map live = %v, %d dense accesses; the default leg never reached the map", p.Name(), leg.name, listing, w.cm != nil, w.stats.BitmapProbes)
				}
				if local := p.Name() == pattern.KClique(4).Name(); local != (w.stats.LocalRows > 0) {
					t.Errorf("%s %s listing=%v: %d local rows built; only the 4-clique has local nodes, and its warmed tasks must still build theirs", p.Name(), leg.name, listing, w.stats.LocalRows)
				}
				clique := p.Name() == pattern.KClique(4).Name() || p.Name() == pattern.Triangle().Name()
				if clique && w.stats.SetOpIterations != 0 {
					t.Errorf("%s %s listing=%v: %d merge iterations on a plan whose every chain is scannable", p.Name(), leg.name, listing, w.stats.SetOpIterations)
				}
				skewed := p.Name() == pattern.Diamond().Name() || p.Name() == pattern.House().Name()
				if skewed && w.stats.GallopProbes == 0 {
					t.Errorf("%s %s listing=%v: no gallop probe; the skewed operations fell back to merge", p.Name(), leg.name, listing)
				}
			}
		}
	}
}

// TestAuxMineConstantHeap extends the O(1)-heap mmap bound to the aux layer:
// mining the house through a mapped store with aux on must allocate only
// per-worker scratch (O(maxDegree) arrays plus the row arenas), never
// anything proportional to the file.
func TestAuxMineConstantHeap(t *testing.T) {
	// Erdős–Rényi: a multi-megabyte file with a tiny max degree, so worker
	// scratch (O(maxDegree) per spec) stays far under the file-derived bound.
	g := graph.ErdosRenyi(30_000, 240_000, 23)
	bin := t.TempDir() + "/g.bin"
	if err := graph.SaveBinary(bin, g); err != nil {
		t.Fatal(err)
	}
	pl := compileAux(t, pattern.House())
	want, err := Mine(g, pl, Options{Threads: 2, Kernel: KernelMergeOnly, AuxGraph: AuxOn})
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
	res, err := Mine(m, pl, Options{Threads: 2, Kernel: KernelMergeOnly, AuxGraph: AuxOn})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if res.Count() != want.Count() {
		t.Fatalf("mapped aux mine count %d != heap %d", res.Count(), want.Count())
	}
	// 2 workers × a handful of MaxDegree-sized arrays plus arena rows: far
	// below the adjacency payload. Reuse the mmap test's file/4 bound.
	fi, err := os.Stat(bin)
	if err != nil {
		t.Fatal(err)
	}
	if grew, bound := int64(after.HeapAlloc)-int64(before.HeapAlloc), fi.Size()/4; grew > bound {
		t.Fatalf("aux mine over mmap grew heap by %d bytes for a %d-byte graph; want < %d", grew, fi.Size(), bound)
	}
}

// TestAuxListEquivalence drives the listing path: per-embedding visitors must
// see the identical multiset of embeddings with the aux layer on.
func TestAuxListEquivalence(t *testing.T) {
	g := graph.ErdosRenyi(200, 1400, 29)
	pl := compileAux(t, pattern.House())
	collect := func(mode AuxMode) map[[5]graph.VID]int {
		seen := map[[5]graph.VID]int{}
		mu := make(chan struct{}, 1)
		mu <- struct{}{}
		_, err := List(g, pl, Options{Threads: 4, AuxGraph: mode}, func(emb []graph.VID, pat int) {
			var k [5]graph.VID
			copy(k[:], emb)
			<-mu
			seen[k]++
			mu <- struct{}{}
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen
	}
	want := collect(AuxOff)
	if len(want) == 0 {
		t.Fatal("fixture lists no houses; enlarge the graph")
	}
	for _, mode := range []AuxMode{AuxAuto, AuxOn} {
		if got := collect(mode); !reflect.DeepEqual(got, want) {
			t.Fatalf("aux=%v listed %d embeddings, off listed %d — sets differ", mode, len(got), len(want))
		}
	}
}

func TestParseAuxMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AuxMode
	}{{"off", AuxOff}, {"auto", AuxAuto}, {"", AuxAuto}, {"on", AuxOn}} {
		got, err := ParseAuxMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAuxMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseAuxMode("bogus"); err == nil {
		t.Error("ParseAuxMode accepted bogus mode")
	}
	if AuxOff.String() != "off" || AuxAuto.String() != "auto" || AuxOn.String() != "on" {
		t.Error("AuxMode.String spellings drifted from the CLI flag values")
	}
	if got := AuxMode(42).String(); got != "AuxMode(42)" {
		t.Errorf("out-of-range AuxMode string = %q", got)
	}
}
