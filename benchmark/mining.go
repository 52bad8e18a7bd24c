package main

// The four CPU-engine workloads: clique, house, list and store. One operation
// is one pass: for every leg, open the store (store only), compile the plan,
// build the engine and mine, exactly as a library or CLI user would.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// engineOptions are what the CLI and the job service default to — kernel auto,
// aux auto, slice auto — on one thread (see workload.procs).
func engineOptions() core.Options { return core.Options{Threads: 1, AuxGraph: core.AuxAuto} }

// baselineOptions take the other path through the engine — merge kernels only,
// no aux rows, no hub index, one thread — for cross-checking counts.
func baselineOptions() core.Options {
	return core.Options{Threads: 1, Kernel: core.KernelMergeOnly, AuxGraph: core.AuxOff, HubBitmaps: -1}
}

// leg is one query of a pass.
type leg struct {
	name    string                      // key of its counts in env.counts
	planFn  string                      // the plan-layer call, names its span
	compile func() (*plan.Plan, error)  // that call
	list    bool                        // core.List with a tallying visitor instead of Engine.Mine
	openFn  string                      // store workload: the graph-layer call that opens the leg's store
	open    func() (graph.Store, error) // nil: mine the workload's in-heap graph
}

type miner struct {
	e    *env
	g    graph.Store // in-heap graph, oriented for the clique plans
	legs []leg
	want map[string]int64 // counts of the warm-up pass, which every pass must reproduce

	// tiny is a brute-force-sized graph from the same generator (quick mode).
	tiny *graph.Graph

	// Traced runs: engine counters of the recorded passes.
	stats       core.Stats
	listMatches int64
	listSeconds float64
	passes      int
}

// tally is a cache-line-padded counter. The list visitor spreads its
// increments over 256 of them by the embedding's second vertex: hub slicing
// hands two workers disjoint ranges of one start vertex's adjacency, so the
// second vertex — unlike the first — keeps concurrent workers on different
// lines. (Sharded by the first vertex, passes were bimodal, 0.18 s or 0.8 s.)
type tally struct {
	n atomic.Int64
	_ [56]byte
}

// pass runs every leg once under operation op (-1 = unrecorded) and returns
// the counts mined, or the first error. opts is the engine configuration.
func (m *miner) pass(op int, opts core.Options) (map[string]int64, error) {
	rec := m.e.rec
	got := map[string]int64{}
	for _, l := range m.legs {
		g := m.g
		var err error
		if l.open != nil {
			rec.call(l.openFn, op, func() { g, err = l.open() })
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", l.name, l.openFn, err)
			}
		}
		var pl *plan.Plan
		rec.call(l.planFn, op, func() { pl, err = l.compile() })
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", l.name, l.planFn, err)
		}
		var res core.Result
		if l.list {
			var shards [256]tally
			visit := func(emb []graph.VID, patternIdx int) { shards[emb[1]&255].n.Add(1) }
			start := time.Now()
			rec.call("core.List", op, func() { res, err = core.List(g, pl, opts, visit) })
			if err != nil {
				return nil, fmt.Errorf("%s: core.List: %w", l.name, err)
			}
			var delivered int64
			for i := range shards {
				delivered += shards[i].n.Load()
			}
			if delivered != res.Count() {
				return nil, fmt.Errorf("%s: visitor saw %d embeddings, core.List returned %d", l.name, delivered, res.Count())
			}
			if op >= 0 {
				m.listMatches += delivered
				m.listSeconds += time.Since(start).Seconds()
			}
		} else {
			var eng *core.Engine
			rec.call("core.NewEngine", op, func() { eng, err = core.NewEngine(g, pl, opts) })
			if err != nil {
				return nil, fmt.Errorf("%s: core.NewEngine: %w", l.name, err)
			}
			rec.call("Engine.Mine", op, func() { res = eng.Mine() })
		}
		if c, ok := g.(interface{ Close() error }); ok && l.open != nil {
			rec.call("graph.Close", op, func() { err = c.Close() })
			if err != nil {
				return nil, fmt.Errorf("%s: close: %w", l.name, err)
			}
		}
		for i, p := range pl.Patterns {
			got[l.name+"."+p.Name()] = res.Counts[i]
		}
		if op >= 0 {
			addStats(&m.stats, res.Stats)
		}
	}
	if op >= 0 {
		m.passes++
	}
	return got, nil
}

// addStats accumulates the exported engine counters (core.Stats has no
// exported Add).
func addStats(dst *core.Stats, s core.Stats) {
	dst.Extensions += s.Extensions
	dst.Candidates += s.Candidates
	dst.SetOpIterations += s.SetOpIterations
	dst.GallopProbes += s.GallopProbes
	dst.BitmapProbes += s.BitmapProbes
	dst.FrontierReuses += s.FrontierReuses
	dst.LeafCountsSkippedMaterialize += s.LeafCountsSkippedMaterialize
	dst.AuxBuilt += s.AuxBuilt
	dst.AuxReused += s.AuxReused
	if s.AuxBytesPeak > dst.AuxBytesPeak {
		dst.AuxBytesPeak = s.AuxBytesPeak
	}
}

func sameCounts(got, want map[string]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("mined %d counts, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			return fmt.Errorf("%s = %d, want %d", k, got[k], w)
		}
	}
	return nil
}

// warmUp is the untimed first pass of set-up: it fills the lazy hub index and
// fixes the counts every later pass must reproduce.
func (m *miner) warmUp() error {
	if m.e.rec != nil {
		if hi, ok := m.g.(graph.HubIndexer); ok {
			t0 := time.Now()
			hi.EnsureHubIndex(0)
			m.e.observe("graph.hubindex_s", time.Since(t0).Seconds())
		}
		t0 := time.Now()
		tasks := sched.Expand(m.g, 32)
		sched.OrderByDegreeDesc(m.g, tasks)
		m.e.observe("sched.expand_s", time.Since(t0).Seconds())
	}
	got, err := m.pass(-1, engineOptions())
	if err != nil {
		return err
	}
	m.want = got
	for k, v := range got {
		m.e.counts[k] = v
	}
	return nil
}

// verify re-mines every leg on the baseline path and, in quick mode, checks
// the engine against core.BruteCount on a tiny graph from the same generator.
func (m *miner) verify() error {
	got, err := m.pass(-1, baselineOptions())
	if err != nil {
		return err
	}
	if err := sameCounts(got, m.want); err != nil {
		return fmt.Errorf("default options against the merge-only single-thread baseline: %w", err)
	}
	if m.tiny == nil {
		return nil
	}
	return bruteCheck(m.tiny, m.legs)
}

// bruteCheck mines each leg's pattern on tiny and compares with brute force.
func bruteCheck(tiny *graph.Graph, legs []leg) error {
	dag := tiny.Orient()
	for _, l := range legs {
		pl, err := l.compile()
		if err != nil {
			return err
		}
		var g graph.Store = tiny
		if pl.RequiresDAG {
			g = dag
		}
		res, err := core.Mine(g, pl, engineOptions())
		if err != nil {
			return err
		}
		for i, p := range pl.Patterns {
			if want := core.BruteCount(tiny, p, pl.Induced); res.Counts[i] != want {
				return fmt.Errorf("%s on the brute-force graph: engine %d, brute force %d", p.Name(), res.Counts[i], want)
			}
		}
	}
	return nil
}

func (m *miner) measure(deadline time.Time, res *result) {
	measurePasses(m.e, deadline, res, m.want, func(op int) (map[string]int64, error) {
		return m.pass(op, engineOptions())
	})
}

func (m *miner) layers(row map[string]float64) {
	rec := m.e.rec
	n := float64(m.passes)
	if n == 0 {
		return
	}
	mine := median(rec.secondsPerOp("Engine.Mine")) + median(rec.secondsPerOp("core.List"))
	row["core.new_engine_s"] = median(rec.secondsPerOp("core.NewEngine"))
	row["core.mine_s"] = mine
	row["graph.open_heap_s"] = median(rec.secondsPerOp("graph.Load"))
	row["graph.open_mmap_s"] = median(rec.secondsPerOp("graph.OpenMapped"))
	row["graph.open_sharded_s"] = median(rec.secondsPerOp("graph.OpenSharded"))
	s := m.stats
	row["core.setop_iters"] = float64(s.SetOpIterations) / n
	row["core.gallop_probes"] = float64(s.GallopProbes) / n
	row["core.bitmap_probes"] = float64(s.BitmapProbes) / n
	row["core.extensions"] = float64(s.Extensions) / n
	row["core.candidates"] = float64(s.Candidates) / n
	row["core.frontier_reuses"] = float64(s.FrontierReuses) / n
	row["core.leaf_skips"] = float64(s.LeafCountsSkippedMaterialize) / n
	row["core.aux_built"] = float64(s.AuxBuilt) / n
	row["core.aux_reused"] = float64(s.AuxReused) / n
	row["core.aux_hit_ratio"] = ratio(float64(s.AuxReused), float64(s.AuxBuilt+s.AuxReused))
	row["core.aux_bytes_peak"] = float64(s.AuxBytesPeak)
	row["core.ns_per_setop_elem"] = ratio(mine*1e9*n, float64(s.SetOpIterations+s.GallopProbes+s.BitmapProbes))
	row["core.list_ns_per_match"] = ratio(m.listSeconds*1e9, float64(m.listMatches))
	m.scaling(row)
}

// scaling fills the sched rows. Passes are measured on one engine thread (see
// workload.procs), where the work-stealing scheduler has nothing to do, so a
// traced run ends with two more passes on every processor of the host: one
// with a single engine thread, one with a thread per processor and scheduler
// hooks counting tasks and steals. speedup_t2 is the ratio of the two.
func (m *miner) scaling(row map[string]float64) {
	procs := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var tasks, steals, stolen, crossShard atomic.Int64
	one, all := engineOptions(), engineOptions()
	one.Threads, all.Threads = 1, procs
	all.SchedHooks = sched.Hooks{
		OnSteal: func(thief, victim, ntasks int) {
			steals.Add(1)
			stolen.Add(int64(ntasks))
		},
		OnStealTier: func(thief, victim, ntasks, tier int) {
			if tier == sched.StealCross {
				crossShard.Add(1)
			}
		},
		OnTask: func(worker int, t sched.Task) { tasks.Add(1) },
	}
	t0 := time.Now()
	if _, err := m.pass(-1, one); err != nil {
		return
	}
	t1 := time.Now()
	if _, err := m.pass(-1, all); err != nil {
		return
	}
	row["sched.speedup_t2"] = ratio(t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	row["sched.tasks"] = float64(tasks.Load())
	row["sched.steals"] = float64(steals.Load())
	row["sched.tasks_stolen"] = float64(stolen.Load())
	row["sched.steals_cross_shard"] = float64(crossShard.Load())
}

func (m *miner) close() error { return nil }

// generate builds the R-MAT graph of shape s for this run's seed.
func (e *env) generate(s shape) *graph.Graph {
	if e.quick {
		s.scale, s.edges = s.scale-4, s.edges/16
	}
	t0 := time.Now()
	g := graph.RMAT(s.scale, s.edges, s.a, s.b, s.c, e.seed^s.salt)
	e.observe("graph.gen_s", time.Since(t0).Seconds())
	return g
}

// describe states the generated graph's size in the record.
func (e *env) describe(g graph.Store) {
	e.inputs["graph.vertices"] = int64(g.NumVertices())
	e.inputs["graph.arcs"] = g.NumArcs()
	e.inputs["graph.max_degree"] = int64(g.MaxDegree())
}

func cliqueLeg(name string, k int) leg {
	return leg{name: name, planFn: "plan.CompileCliqueDAG",
		compile: func() (*plan.Plan, error) { return plan.CompileCliqueDAG(k) }}
}

func patternLeg(name string, p *pattern.Pattern, list bool) leg {
	return leg{name: name, planFn: "plan.Compile", list: list,
		compile: func() (*plan.Plan, error) { return plan.Compile(p, plan.Options{}) }}
}

func setupMiner(e *env, g graph.Store, legs []leg) (instance, error) {
	m := &miner{e: e, g: g, legs: legs}
	if e.quick {
		m.tiny = e.generate(bruteShape)
	}
	e.describe(g)
	return m, m.warmUp()
}

func setupClique(e *env) (instance, error) {
	return setupMiner(e, e.generate(cliqueShape).Orient(), []leg{cliqueLeg("TC", 3), cliqueLeg("4-CL", 4)})
}

func setupHouse(e *env) (instance, error) {
	return setupMiner(e, e.generate(houseShape), []leg{
		patternLeg("SL-house", pattern.House(), false),
		patternLeg("SL-4cycle", pattern.FourCycle(), false),
	})
}

func setupList(e *env) (instance, error) {
	return setupMiner(e, e.generate(listShape), []leg{
		patternLeg("list-tailed-triangle", pattern.TailedTriangle(), true),
		patternLeg("list-diamond", pattern.Diamond(), true),
		patternLeg("list-4cycle", pattern.FourCycle(), true),
	})
}

// setupStore writes the oriented graph once as a binary CSR file and once as
// a four-shard directory; each pass then opens, mines and closes all three
// backends.
func setupStore(e *env) (instance, error) {
	g := e.generate(storeShape).Orient()
	bin := filepath.Join(e.dir, "g.bin")
	shards := filepath.Join(e.dir, "g.shards")
	if err := graph.SaveBinary(bin, g); err != nil {
		return nil, err
	}
	if err := graph.WriteSharded(shards, g, 4); err != nil {
		return nil, err
	}
	var bytes int64
	err := filepath.Walk(e.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	e.observe("graph.file_mb", float64(bytes)/(1<<20))
	backend := func(name, openFn string, open func() (graph.Store, error)) leg {
		l := cliqueLeg(name, 3)
		l.openFn, l.open = openFn, open
		return l
	}
	legs := []leg{
		backend("TC-heap", "graph.Load", func() (graph.Store, error) { return graph.Load(bin) }),
		backend("TC-mmap", "graph.OpenMapped", func() (graph.Store, error) { return graph.OpenMapped(bin) }),
		backend("TC-sharded", "graph.OpenSharded", func() (graph.Store, error) { return graph.OpenSharded(shards) }),
	}
	m := &miner{e: e, g: g, legs: legs}
	if e.quick {
		m.tiny = e.generate(bruteShape)
	}
	e.describe(g)
	if err := m.warmUp(); err != nil {
		return nil, err
	}
	// The three backends hold the same graph, so they must agree.
	if a, b, c := m.want["TC-heap.3-clique"], m.want["TC-mmap.3-clique"], m.want["TC-sharded.3-clique"]; a != b || a != c {
		return nil, fmt.Errorf("store backends disagree: heap %d, mmap %d, sharded %d", a, b, c)
	}
	return m, nil
}
