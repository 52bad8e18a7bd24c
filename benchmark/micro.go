package main

// Micro rows: the layers no workload isolates on its own — set kernels, the
// c-map, the plan compiler, pattern analysis, request parsing and the
// Prometheus writer — timed directly on seeded inputs. They run in traced
// runs only, after the measure phase.

import (
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cmap"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/setops"
)

// perCallNS times fn: it grows the repeat count until a batch takes 2 ms
// (0.2 ms in quick mode), then returns the median per-call time of five
// batches, in nanoseconds.
func (e *env) perCallNS(fn func()) float64 {
	floor := 2 * time.Millisecond
	if e.quick {
		floor /= 10
	}
	batch := func(reps int) time.Duration {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return time.Since(t0)
	}
	reps := 1
	for batch(reps) < floor && reps < 1<<20 {
		reps *= 4
	}
	var xs []float64
	for b := 0; b < 5; b++ {
		xs = append(xs, float64(batch(reps))/float64(reps))
	}
	return median(xs)
}

// sortedSet draws n distinct sorted IDs below universe.
func sortedSet(rng *rand.Rand, n, universe int) []graph.VID {
	seen := make(map[graph.VID]bool, n)
	out := make([]graph.VID, 0, n)
	for len(out) < n {
		v := graph.VID(rng.Intn(universe))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func countOps(n *plan.Node) int {
	ops := 1
	for _, c := range n.Children {
		ops += countOps(c)
	}
	return ops
}

func microRows(e *env) {
	rng := rand.New(rand.NewSource(int64(e.seed)))

	// setops: balanced 4096 × 4096 operands for the merge kernels, a skewed
	// 64 × 4096 pair for galloping, 4096 probes into a dense bitmap. Merge
	// rows are per element of both operands, probe rows per probing element.
	const universe = 16384
	a, b := sortedSet(rng, 4096, universe), sortedSet(rng, 4096, universe)
	small := sortedSet(rng, 64, universe)
	bitmap := make([]uint64, setops.BitmapWords(universe))
	for _, v := range b {
		bitmap[v/64] |= 1 << (v % 64)
	}
	dst := make([]graph.VID, 0, len(a))
	both := float64(len(a) + len(b))
	e.observe("setops.merge_ns_per_elem", e.perCallNS(func() { dst = setops.Intersect(dst[:0], a, b) })/both)
	e.observe("setops.diff_ns_per_elem", e.perCallNS(func() { dst = setops.Difference(dst[:0], a, b) })/both)
	e.observe("setops.count_ns_per_elem", e.perCallNS(func() { setops.IntersectCount(a, b, setops.NoBound) })/both)
	e.observe("setops.gallop_ns_per_elem", e.perCallNS(func() {
		dst = setops.IntersectGalloping(dst[:0], small, b, setops.NoBound)
	})/float64(len(small)))
	e.observe("setops.bitmap_ns_per_elem", e.perCallNS(func() {
		dst, _ = setops.IntersectBitmap(dst[:0], a, bitmap, setops.NoBound)
	})/float64(len(a)))

	// cmap: the paper's 8 kB, 4-bank table. One level of 256 keys is inserted,
	// looked up and removed; overflow_frac is the share of a seeded sequence of
	// adjacency lists the occupancy estimate turns away.
	keys := sortedSet(rng, 256, universe)
	hm := cmap.NewHashMapBytes(8<<10, 4)
	e.observe("cmap.insert_ns", e.perCallNS(func() {
		hm.TryInsertLevel(keys, 1, cmap.NoBound)
		hm.RemoveLevel(keys, 1, cmap.NoBound)
	})/float64(len(keys)))
	hm.TryInsertLevel(keys, 1, cmap.NoBound)
	e.observe("cmap.lookup_ns", e.perCallNS(func() {
		for _, k := range keys {
			hm.Lookup(k)
		}
	})/float64(len(keys)))
	hm.Reset()
	const lists = 64
	for i := 0; i < lists; i++ {
		adj := sortedSet(rng, 64+rng.Intn(2048), universe)
		if hm.TryInsertLevel(adj, 1, cmap.NoBound) {
			hm.RemoveLevel(adj, 1, cmap.NoBound)
		}
	}
	e.observe("cmap.overflow_frac", float64(hm.Stats().Overflows)/lists)

	// plan: the house chain, the burst catalog merged by size class, 5-motifs.
	house := pattern.House()
	e.observe("plan.compile_us", e.perCallNS(func() { plan.Compile(house, plan.Options{}) })/1e3) //nolint:errcheck // checked below
	bySize := map[int][]*pattern.Pattern{}
	var burst []*pattern.Pattern
	for _, name := range burstCatalog {
		p, err := pattern.ByName(name)
		if err != nil {
			continue
		}
		burst = append(burst, p)
		bySize[p.Size()] = append(bySize[p.Size()], p)
	}
	e.observe("plan.compile_multi_us", e.perCallNS(func() {
		for _, ps := range bySize {
			plan.CompileMulti(ps, plan.Options{}) //nolint:errcheck // checked below
		}
	})/1e3)
	t0 := time.Now()
	plan.CompileMotifs(5, plan.Options{}) //nolint:errcheck // timing only; plan tests own its correctness
	e.observe("plan.compile_motifs5_ms", ms(time.Since(t0)))
	if merged, err := plan.CompileMulti(bySize[4], plan.Options{}); err == nil {
		e.observe("plan.ops", float64(countOps(merged.Root)))
	}
	if pl, err := plan.Compile(house, plan.Options{}); err == nil {
		e.observe("plan.aux_specs", float64(len(pl.AuxSpecs)))
	}

	// pattern: the 4-motif enumeration and the isomorphism tests batching does.
	e.observe("pattern.motifs4_us", e.perCallNS(func() { pattern.Motifs(4) })/1e3)
	e.observe("pattern.iso_us", e.perCallNS(func() {
		for _, p := range burst {
			for _, q := range burst {
				p.IsIsomorphic(q)
			}
		}
	})/1e3)

	// jobs: decoding and validating one submit document.
	body := []byte(`{"tenant":"tenant-0","graph":{"name":"g"},"pattern":{"name":"tailed-triangle"}}`)
	e.observe("jobs.parse_us", e.perCallNS(func() { jobs.ParseSubmit(body) })/1e3) //nolint:errcheck // a fixed valid document

	// obs: one /metrics page for a registry holding an engine's counters and
	// two tenants' latency histograms.
	reg := obs.NewRegistry(nil)
	obs.AddStats(reg, "cpu", &core.Stats{})
	h := reg.LabeledHistogram("jobs.run_ms", "job run time", "tenant", 0)
	for i := 0; i < 256; i++ {
		h.Observe([]string{"tenant-0", "tenant-1"}[i%2], int64(rng.Intn(500)))
	}
	e.observe("obs.prometheus_write_us", e.perCallNS(func() { reg.WritePrometheus(io.Discard, "flexminer") })/1e3) //nolint:errcheck // io.Discard cannot fail
}
