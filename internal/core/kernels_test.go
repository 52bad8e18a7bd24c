package core

// Kernel-policy coverage: the size rule and the per-kernel Stats attribution, so
// speedups stay explainable. That mined counts are bit-identical across every
// Kernel policy is TestDifferential's (the engine-side half of the "kernel
// selection never changes results" contract; the simulator-side half — cycle
// invariance — lives in the root package's TestSimCyclesKernelProof).

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

var allKernels = []KernelPolicy{KernelAuto, KernelMergeOnly}

// TestChooseKernel pins the size rule every non-masked chained operation is
// dispatched by: swapped gallop iff intersection and adj·16 ≤ cur, gallop iff
// cur·16 ≤ adj, merge otherwise — and always merge under KernelMergeOnly.
func TestChooseKernel(t *testing.T) {
	auto := &worker{o: Options{Kernel: KernelAuto}}
	merge := &worker{o: Options{Kernel: KernelMergeOnly}}
	for _, c := range []struct {
		cur, adj int
		diff     bool
		want     kernelKind
	}{
		{100, 100, false, kMerge},
		{100, 100, true, kMerge},
		{160, 10, false, kGallopSwap},
		{159, 10, false, kMerge},
		{160, 10, true, kMerge}, // difference is not symmetric: no swap
		{10, 160, false, kGallop},
		{10, 160, true, kGallop},
		{10, 159, false, kMerge},
		{10, 159, true, kMerge},
		{0, 0, false, kGallopSwap}, // both rules hold on empty operands; swap is tested first
		{0, 0, true, kGallop},
		{0, 5, false, kGallop},
		{5, 0, false, kGallopSwap},
		{5, 0, true, kMerge},
	} {
		if got := auto.chooseKernel(c.cur, c.adj, c.diff); got != c.want {
			t.Errorf("auto: chooseKernel(%d, %d, diff=%v) = %d, want %d", c.cur, c.adj, c.diff, got, c.want)
		}
		if got := merge.chooseKernel(c.cur, c.adj, c.diff); got != kMerge {
			t.Errorf("merge-only: chooseKernel(%d, %d, diff=%v) = %d, want merge", c.cur, c.adj, c.diff, got)
		}
	}
}

// asGiven is a store the engine mines under the caller's IDs: degreeOrdered's
// copy is taken of heap graphs only.
type asGiven struct{ graph.Store }

// TestKernelStatsAttribution: the counters must attribute work to the kernel
// that did it — merge-only runs report no probes, and on a hubby power-law
// graph the auto policy must actually have used the fast kernels: every chain
// of a clique plan is scannable or local and a declined scan gallops, so auto
// runs no merge iteration at all. The triangle plan has no local node, so its
// skewed operations still gallop; the 4-clique's run on rows wherever the
// universe fits. The graph keeps ChungLu's IDs, hubs first — a heap graph's
// triangle run would mine its degree-ordered copy, whose operands are not skewed.
func TestKernelStatsAttribution(t *testing.T) {
	g := asGiven{graph.ChungLu(1200, 14400, 2.2, 0x55)} // power-law: skewed operand sizes occur
	for _, k := range []int{3, 4} {
		pl, err := plan.Compile(pattern.KClique(k), plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		merge, err := Mine(g, pl, Options{Threads: 2, Kernel: KernelMergeOnly})
		if err != nil {
			t.Fatal(err)
		}
		if merge.Stats.GallopProbes != 0 || merge.Stats.BitmapProbes != 0 || merge.Stats.LocalRows != 0 {
			t.Errorf("%d-clique: merge-only run reported probes: gallop=%d bitmap=%d rows=%d",
				k, merge.Stats.GallopProbes, merge.Stats.BitmapProbes, merge.Stats.LocalRows)
		}
		if merge.Stats.LeafCountsSkippedMaterialize == 0 {
			t.Errorf("%d-clique: count-only leaves never engaged", k)
		}
		auto, err := Mine(g, pl, Options{Threads: 2, Kernel: KernelAuto})
		if err != nil {
			t.Fatal(err)
		}
		if k == 3 && (auto.Stats.GallopProbes == 0 || auto.Stats.LocalRows != 0) {
			t.Errorf("triangle: %d gallop probes, %d local rows; want the skewed operations galloped and no row built",
				auto.Stats.GallopProbes, auto.Stats.LocalRows)
		}
		if k == 4 && auto.Stats.LocalRows == 0 {
			t.Error("4-clique: auto policy never built a local row")
		}
		if auto.Stats.BitmapProbes == 0 {
			t.Errorf("%d-clique: auto policy never touched a dense structure", k)
		}
		if auto.Stats.SetOpIterations != 0 {
			t.Errorf("%d-clique: auto ran %d merge iterations on a clique plan (merge-only: %d)",
				k, auto.Stats.SetOpIterations, merge.Stats.SetOpIterations)
		}
		// FrontierReuses is not an invariant: a scan that replaces a frontier+residual
		// operation starts from the extender's row instead, a local node from a bit set.
		if k == 4 && auto.Stats.FrontierReuses >= merge.Stats.FrontierReuses {
			t.Errorf("auto reused %d frontiers, merge-only %d; scans and rows should have replaced some",
				auto.Stats.FrontierReuses, merge.Stats.FrontierReuses)
		}
		// Invariant plumbing: candidates are kernel-independent, and so are
		// extensions where no level takes a closed form — no clique level does.
		if auto.Stats.Candidates != merge.Stats.Candidates || auto.Stats.Extensions != merge.Stats.Extensions {
			t.Errorf("%d-clique: search-tree stats drifted: auto cand/ext %d/%d, merge %d/%d",
				k, auto.Stats.Candidates, auto.Stats.Extensions, merge.Stats.Candidates, merge.Stats.Extensions)
		}
	}
}
