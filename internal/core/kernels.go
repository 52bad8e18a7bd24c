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
//   - hub bitmap   — one word probe per element against a precomputed dense
//     bitmap of a top-K-degree vertex (graph.HubIndex).
//
// All kernels compute bit-identical candidate sets, so mined counts are
// invariant under Options.Kernel (enforced by TestKernelInvariance). Kernel
// selection is a CPU-engine concern only: the simulator always charges
// merge-model SIU/SDU cycles regardless of this option (DESIGN.md "Software
// kernels vs SIU/SDU").

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/setops"
)

// KernelPolicy selects the CPU engine's set-operation kernels.
type KernelPolicy int

const (
	// KernelAuto (the default) picks per operation by operand shape:
	// galloping for skewed sizes, bitmap probes against indexed hubs, merge
	// otherwise.
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
// (GraphZero, AutoMine): merge-only kernels, no auxiliary graphs. It is the
// only way the paper runners of internal/bench obtain Options (enforced by the
// kernelpin analyzer), so the accelerator speedup figures keep their meaning.
func PaperBaseline(threads int) Options {
	return Options{Threads: threads, Kernel: KernelMergeOnly, AuxGraph: AuxOff}
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
	kBitmap                // probe adj's hub bitmap per cur element
)

// chooseKernel picks the kernel for one chained operation cur ∘ adj.
// hubBM is adj's dense bitmap (nil when the ancestor is not an indexed hub).
func (w *worker) chooseKernel(curLen, adjLen int, hubBM []uint64, diff bool) kernelKind {
	if w.o.Kernel == KernelMergeOnly {
		return kMerge
	}
	// KernelAuto. A swapped gallop (iterate the adjacency, probe the
	// candidate list) only exists for intersection — difference is not
	// symmetric — and beats even a bitmap probe when adj is tiny.
	if !diff && adjLen*gallopRatio <= curLen {
		return kGallopSwap
	}
	if hubBM != nil {
		return kBitmap
	}
	if curLen*gallopRatio <= adjLen {
		return kGallop
	}
	return kMerge
}

// hubBitmap resolves the hub bitmap of an ancestor vertex under the active
// policy (nil when bitmaps are disabled or v is not an indexed hub).
func (w *worker) hubBitmap(v graph.VID) []uint64 {
	if w.hub == nil {
		return nil
	}
	return w.hub.Bitmap(v)
}

// setOp appends (cur ∘ adj(anc)) bounded by bound to dst, where ∘ is
// intersection (diff=false) or difference (diff=true), dispatching to the
// policy-selected kernel and charging the matching Stats counter.
func (w *worker) setOp(dst, cur []graph.VID, anc graph.VID, diff bool, bound graph.VID) []graph.VID {
	adj := w.g.Adj(anc)
	hubBM := w.hubBitmap(anc)
	var cost int64
	switch w.chooseKernel(len(cur), len(adj), hubBM, diff) {
	case kGallop:
		if diff {
			dst, cost = setops.DifferenceGallopingCost(dst, cur, adj, bound)
		} else {
			dst, cost = setops.IntersectGallopingCost(dst, cur, adj, bound)
		}
		w.stats.GallopProbes += cost
	case kGallopSwap:
		dst, cost = setops.IntersectGallopingCost(dst, adj, cur, bound)
		w.stats.GallopProbes += cost
	case kBitmap:
		if diff {
			dst, cost = setops.DifferenceBitmap(dst, cur, hubBM, bound)
		} else {
			dst, cost = setops.IntersectBitmap(dst, cur, hubBM, bound)
		}
		w.stats.BitmapProbes += cost
	default:
		if diff {
			dst, cost = setops.DifferenceCost(dst, cur, adj, bound)
		} else {
			dst, cost = setops.IntersectCost(dst, cur, adj, bound)
		}
		w.stats.SetOpIterations += cost
	}
	return dst
}

// setOpCount is setOp without materialization: it returns |cur ∘ adj(anc)|
// under bound. Used by the count-only leaf path (worker.count) for the final
// chained operation.
func (w *worker) setOpCount(cur []graph.VID, anc graph.VID, diff bool, bound graph.VID) int64 {
	adj := w.g.Adj(anc)
	hubBM := w.hubBitmap(anc)
	var n, cost int64
	switch w.chooseKernel(len(cur), len(adj), hubBM, diff) {
	case kGallop:
		if diff {
			n, cost = setops.DifferenceGallopingCount(cur, adj, bound)
		} else {
			n, cost = setops.IntersectGallopingCount(cur, adj, bound)
		}
		w.stats.GallopProbes += cost
	case kGallopSwap:
		n, cost = setops.IntersectGallopingCount(adj, cur, bound)
		w.stats.GallopProbes += cost
	case kBitmap:
		if diff {
			n, cost = setops.DifferenceBitmapCount(cur, hubBM, bound)
		} else {
			n, cost = setops.IntersectBitmapCount(cur, hubBM, bound)
		}
		w.stats.BitmapProbes += cost
	default:
		n, cost = mergeCount(cur, adj, diff, bound)
		w.stats.SetOpIterations += cost
	}
	return n
}

// mergeCount is the merge leg of setOpCount, the engine's hottest loop on
// clique plans. It stays out of line so the loop's code alignment — worth
// ±15% on 4-CL counting, measured — is fixed by this function alone and does
// not move whenever the dispatch above it changes.
//
//go:noinline
func mergeCount(cur, adj []graph.VID, diff bool, bound graph.VID) (n, iters int64) {
	if diff {
		return setops.DifferenceCountCost(cur, adj, bound)
	}
	return setops.IntersectCountCost(cur, adj, bound)
}
