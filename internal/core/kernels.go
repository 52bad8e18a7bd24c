package core

// Adaptive set-operation kernels for the CPU engine. The merge loop is the
// right cost model for the accelerator's SIU/SDU (one element per cycle,
// Fig 9) but a poor use of a CPU when operand sizes are skewed: power-law
// adjacency makes |candidates| ≪ deg(hub) the common case. The engine
// therefore picks, per chained set operation, among
//
//   - merge        — the classic two-pointer loop (SIU/SDU model),
//   - galloping    — iterate the small side, gallop a stateful cursor over
//     the large side (O(small·log gap), see setops.Seeker),
//   - c-map scan   — one byte probe per element of the extender's row against
//     the worker's connectivity map, settling a whole chain at once (below),
//   - local rows   — word-AND over the bit rows of adj(v0)'s induced graph, for
//     the levels the plan roots there, in tasks where it fits (local.go).
//
// All kernels compute bit-identical candidate sets, so mined counts are
// invariant under Options.Kernel (enforced by TestDifferential). Kernel
// selection is a CPU-engine concern only: the simulator always charges
// merge-model SIU/SDU cycles regardless of this option (DESIGN.md "Software
// kernels vs SIU/SDU").

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/setops"
)

// KernelPolicy selects the CPU engine's set-operation kernels.
type KernelPolicy int

const (
	// KernelAuto (the default) picks per operation by operand shape: local
	// rows or a c-map scan where the plan allows them, galloping for skewed
	// sizes, merge otherwise.
	KernelAuto KernelPolicy = iota
	// KernelMergeOnly always runs the two-pointer merge loop — the exact
	// software model of the accelerator's SIU/SDU and the configuration of
	// the merge-based baselines (GraphZero/AutoMine).
	KernelMergeOnly
)

func (k KernelPolicy) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelMergeOnly:
		return "merge"
	}
	return fmt.Sprintf("KernelPolicy(%d)", int(k))
}

// ParseKernelPolicy resolves a CLI/config spelling of a kernel policy.
func ParseKernelPolicy(s string) (KernelPolicy, error) {
	switch s {
	case "auto", "":
		return KernelAuto, nil
	case "merge", "merge-only":
		return KernelMergeOnly, nil
	}
	return 0, fmt.Errorf("core: unknown kernel policy %q (want auto or merge)", s)
}

// PaperBaseline returns the options of the paper's software baselines
// (GraphZero, AutoMine). Merge-only kernels are the whole pin: the c-map, local
// rows, closed forms and auxiliary rows all exist under KernelAuto only. It is
// the only way the paper runners of internal/bench obtain Options (enforced by
// the kernelpin analyzer), so the accelerator speedup figures keep their meaning.
func PaperBaseline(threads int) Options {
	return Options{Threads: threads, Kernel: KernelMergeOnly}
}

// degreeOrdered reports whether a run of p mines the (degree, ID)-ordered copy
// of its symmetric heap graph (graph.DegreeOrdered) instead of the caller's IDs
// (DESIGN.md decision 28): a count of one edge-induced pattern of at most five
// vertices under KernelAuto, with no local rows, whose level 1 is bounded by v0
// alone and no deeper level by v0. There `v1 < v0` cuts lists by degree, not by
// generator IDs that put the hubs first; on the other plans of the catalog the
// copy was measured slower. A plan with a half-sum (halfSums) mines the copy too:
// its whole-vertex tasks read one slot per arc in either order, and the index it
// reads is then the one the copy holds for the diamond and the 4-path.
func degreeOrdered(p *program) bool {
	pl := p.pl
	if !p.closed || p.local || pl.Induced || len(pl.Patterns) != 1 || pl.K > 5 {
		return false
	}
	half := false
	p.each(func(n *node, _ []*node) { half = half || n.half != 0 })
	if half {
		return true
	}
	n := pl.Root.Children[0] // one pattern of K ≥ 2: a chain
	if !slices.Equal(n.Op.UpperBounds, []int{0}) {
		return false
	}
	for len(n.Children) > 0 {
		if n = n.Children[0]; slices.Contains(n.Op.UpperBounds, 0) {
			return false
		}
	}
	return true
}

// gallopRatio is the size skew at which galloping beats merging under
// KernelAuto: iterate-and-gallop costs ≈ small·log(large/small) comparisons
// versus small+large for the merge loop, so 16× is comfortably past the
// crossover for the adjacency sizes the stand-ins produce.
const gallopRatio = 16

// kernelKind is the per-operation choice made by chooseKernel.
type kernelKind int

const (
	kMerge      kernelKind = iota
	kGallop                // iterate cur, gallop over adj
	kGallopSwap            // iterate adj, gallop over cur (intersection only)
	kScan                  // probe the c-map per element of the extender's row (masked ops)
)

// chooseKernel picks the kernel for one chained operation cur ∘ adj from the
// operand sizes. A swapped gallop (iterate the adjacency, probe the candidate
// list) only exists for intersection — difference is not symmetric.
func (w *worker) chooseKernel(curLen, adjLen int, diff bool) kernelKind {
	switch {
	case w.o.Kernel == KernelMergeOnly:
		return kMerge
	case !diff && adjLen*gallopRatio <= curLen:
		return kGallopSwap
	case curLen*gallopRatio <= adjLen:
		return kGallop
	}
	return kMerge
}

// setOp finishes one chained operation under bound — cur ∘ adj(emb[o.level]),
// ∘ being intersection or difference, or cur filtered by o's c-map mask — with
// the policy-selected kernel, charging the matching Stats counter. With keep
// the result is appended to dst; without, it is only counted (worker.count).
func (w *worker) setOp(dst []graph.VID, keep bool, cur []graph.VID, o chainOp, bound graph.VID) ([]graph.VID, int64) {
	kind := kScan
	var adj []graph.VID
	if !o.masked() {
		adj = w.g.Adj(w.emb[o.level])
		kind = w.chooseKernel(len(cur), len(adj), o.diff)
	}
	var n, cost int64
	switch kind {
	case kScan: // cur is the extender's bounded row (resolve, auxBuild)
		if keep {
			dst = setops.MaskScan(dst, cur, w.cm, o.need, o.avoid)
		} else {
			n = setops.MaskCount(cur, w.cm, o.need, o.avoid)
		}
		w.stats.BitmapProbes += int64(len(cur))
	case kGallop:
		switch {
		case keep && o.diff:
			dst, cost = setops.DifferenceGallopingCost(dst, cur, adj, bound)
		case keep:
			dst, cost = setops.IntersectGallopingCost(dst, cur, adj, bound)
		case o.diff:
			n, cost = setops.DifferenceGallopingCount(cur, adj, bound)
		default:
			n, cost = setops.IntersectGallopingCount(cur, adj, bound)
		}
		w.stats.GallopProbes += cost
	case kGallopSwap:
		if keep {
			dst, cost = setops.IntersectGallopingCost(dst, adj, cur, bound)
		} else {
			n, cost = setops.IntersectGallopingCount(adj, cur, bound)
		}
		w.stats.GallopProbes += cost
	default:
		switch {
		case !keep:
			n, cost = mergeCount(cur, adj, o.diff, bound)
		case o.diff:
			dst, cost = setops.DifferenceCost(dst, cur, adj, bound)
		default:
			dst, cost = setops.IntersectCost(dst, cur, adj, bound)
		}
		w.stats.SetOpIterations += cost
	}
	return dst, n
}

// holds reports whether v passes operation o on its own — the membership test
// behind count's distinctness adjustment.
func (w *worker) holds(o chainOp, v graph.VID) bool {
	if o.masked() {
		return w.cm[v]&(o.need|o.avoid) == o.need
	}
	return w.index(w.g.Adj(w.emb[o.level]), v) >= 0 != o.diff
}

// The connectivity map (DESIGN.md decision 19): which levels are marked and
// which chains may scan is static (prog.go, markLevels), scanPays and outreads
// are the per-operation half. Probes and mark/unmark writes are all charged to
// Stats.BitmapProbes.

// mark inserts the adjacency of n's freshly fixed vertex into the c-map,
// below the bound every chain that reads it stays under — the insertion loop
// stops there, nothing searches for it — unless the task runs on local rows and
// only local nodes read the mark; unmark then finds no row.
func (w *worker) mark(n *node) {
	if n.cmap.lonly && w.loc.on {
		return
	}
	bound := setops.NoBound
	for ls := n.cmap.markBelow; ls != 0; ls &= ls - 1 {
		bound = min(bound, w.emb[bits.TrailingZeros32(ls)])
	}
	adj, cm, bit, k := w.g.Adj(w.emb[n.depth]), w.cm, uint8(1)<<n.depth, 0
	for ; k < len(adj) && adj[k] < bound; k++ {
		cm[adj[k]] |= bit
	}
	w.cmRows[n.depth], w.cmDeg[n.depth] = adj[:k], len(adj)
	w.stats.BitmapProbes += int64(k)
}

// unmark clears exactly what mark set, so the map is all-zero between tasks.
func (w *worker) unmark(n *node) {
	row := w.cmRows[n.depth]
	bit := uint8(1) << n.depth
	for _, x := range row {
		w.cm[x] &^= bit
	}
	w.cmRows[n.depth] = nil
	w.stats.BitmapProbes += int64(len(row))
}

// scanPays decides, from sizes alone, whether scanning a bounded extender row
// of rowLen elements beats running ops (all marked, so cmDeg has the lengths)
// as a chain: not when an adjacency it intersects is gallopRatio× shorter,
// where the chain's swapped gallop iterates that instead.
func (w *worker) scanPays(ops []chainOp, rowLen int) bool {
	for _, o := range ops {
		if !o.diff && w.cmDeg[o.level]*gallopRatio <= rowLen {
			return false
		}
	}
	return true
}

// outreads is scanPays' second half for a frontier consumer, whose chain path
// reads the frontier and its first residual operand (the extender's own row or
// a marked level's) instead of the whole row: the scan has to be the shorter
// read, and the frontier not so short that galloping it wins.
func (w *worker) outreads(n *node, front []graph.VID, rowLen int) bool {
	if len(front)*gallopRatio <= rowLen {
		return false
	}
	l := n.res[0].level
	return l == n.op.Extender || rowLen <= len(front)+w.cmDeg[l]
}

// mergeCount is the counting merge leg of setOp, the engine's hottest loop
// under KernelMergeOnly. It stays out of line so the loop's code alignment —
// worth ±15% on 4-CL counting, measured — is fixed by this function alone and
// does not move whenever the dispatch above it changes.
//
//go:noinline
func mergeCount(cur, adj []graph.VID, diff bool, bound graph.VID) (n, iters int64) {
	if diff {
		return setops.DifferenceCountCost(cur, adj, bound)
	}
	return setops.IntersectCountCost(cur, adj, bound)
}
