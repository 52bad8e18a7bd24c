// Package flexminer is the public facade of the FlexMiner reproduction: a
// software/hardware co-designed graph pattern mining (GPM) system (Chen et
// al., ISCA 2021) rebuilt in Go.
//
// The three entry points mirror the paper's structure:
//
//   - Compile turns a pattern (or several) into a pattern-specific execution
//     plan — the matching order, symmetry order and on-chip-storage hints of
//     §V;
//   - Mine interprets a plan on the CPU with the pattern-aware parallel DFS
//     engine (the GraphZero-class software baseline);
//   - Simulate runs the same plan on the cycle-level model of the FlexMiner
//     accelerator (§IV): N processing elements with specialized set-operation
//     units and a banked c-map scratchpad behind a NoC, shared L2 and DRAM.
//
// A minimal session:
//
//	g := flexminer.NewGraph(4, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
//	pl, _ := flexminer.Compile(flexminer.Patterns.Triangle(), flexminer.CompileOptions{})
//	res, _ := flexminer.Mine(g, pl, flexminer.MineOptions{})
//	fmt.Println(res.Counts[0]) // 1
//
// The subsystem packages under internal/ carry the full implementation:
// graph (CSR substrate), pattern (analysis), plan (compiler), setops, cmap,
// core (CPU engines), sim (accelerator model), bench (paper experiments).
package flexminer

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Re-exported core types. The facade aliases rather than wraps so that the
// full APIs of the subsystem packages remain reachable from these names.
type (
	// Graph is an in-heap CSR graph (see NewGraph, LoadGraph, generators
	// below).
	Graph = graph.Graph
	// Store is the read-only storage seam every backend satisfies: in-heap
	// graphs, memory-mapped files (OpenMapped) and sharded directories
	// (OpenSharded). Mine accepts any Store; Simulate wants the concrete
	// in-heap *Graph.
	Store = graph.Store
	// MappedGraph is a zero-copy memory-mapped binary CSR file.
	MappedGraph = graph.Mapped
	// ShardedGraph is an mmap-backed sharded store directory.
	ShardedGraph = graph.Sharded
	// Pattern is a small query graph.
	Pattern = pattern.Pattern
	// Plan is a compiled pattern-specific execution plan.
	Plan = plan.Plan
	// CompileOptions configure the compiler (induced semantics, AutoMine mode).
	CompileOptions = plan.Options
	// MineOptions configure the CPU engine (threads, slicing, kernels).
	MineOptions = core.Options
	// MineResult is the CPU engine outcome.
	MineResult = core.Result
	// KernelPolicy selects the CPU engine's set-operation kernels (see
	// MineOptions.Kernel); the accelerator model never consults it.
	KernelPolicy = core.KernelPolicy
	// SimConfig configures the accelerator model.
	SimConfig = sim.Config
	// SimResult is the accelerator outcome (counts + cycle statistics).
	SimResult = sim.Result
)

// Kernel policies for MineOptions.Kernel. KernelAuto (the zero value) picks
// per set operation: merge for balanced operands, galloping for skewed ones,
// a c-map scan where the plan proves reuse, an auxiliary row where the plan's
// directives still pay; KernelMergeOnly is the paper's merge-based baseline.
const (
	KernelAuto      = core.KernelAuto
	KernelMergeOnly = core.KernelMergeOnly
)

// ParseKernelPolicy resolves a kernel-policy name ("auto", "merge") as
// accepted by the flexminer CLI's -kernel flag.
func ParseKernelPolicy(s string) (KernelPolicy, error) { return core.ParseKernelPolicy(s) }

// NewGraph builds a simple undirected graph from an edge list over n
// vertices, deduplicating edges and dropping self loops.
func NewGraph(n int, edges [][2]uint32) (*Graph, error) {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{U: e[0], V: e[1]}
	}
	return graph.FromEdges(n, es)
}

// LoadGraph reads a graph from disk: SNAP-style text edge lists, or the
// binary CSR format for ".bin" paths.
func LoadGraph(path string) (*Graph, error) { return graph.Load(path) }

// OpenMapped memory-maps a binary CSR file (SaveGraphBinary's format)
// zero-copy: adjacency is demand-paged from the file and never copied onto
// the heap. Close the returned store when done.
func OpenMapped(path string) (*MappedGraph, error) { return graph.OpenMapped(path) }

// OpenSharded opens a sharded store directory (WriteSharded's layout): each
// shard is memory-mapped, and Mine schedules shard-locally over it. Close the
// returned store when done.
func OpenSharded(dir string) (*ShardedGraph, error) { return graph.OpenSharded(dir) }

// WriteSharded partitions g into the given number of contiguous, arc-balanced
// vertex ranges and writes one CSR file per shard plus a manifest under dir.
func WriteSharded(dir string, g *Graph, shards int) error { return graph.WriteSharded(dir, g, shards) }

// SaveGraphBinary writes g in the mappable binary CSR format.
func SaveGraphBinary(path string, g *Graph) error { return graph.SaveBinary(path, g) }

// IsShardedDir reports whether path names a sharded store directory.
func IsShardedDir(path string) bool { return graph.IsShardedDir(path) }

// Compile generates the execution plan for a single pattern.
func Compile(p *Pattern, opt CompileOptions) (*Plan, error) { return plan.Compile(p, opt) }

// CompileMulti generates a merged dependency-tree plan for several patterns
// of equal size (multi-pattern problems, §V-B).
func CompileMulti(ps []*Pattern, opt CompileOptions) (*Plan, error) {
	return plan.CompileMulti(ps, opt)
}

// CompileMotifs generates the vertex-induced k-motif-counting plan.
func CompileMotifs(k int, opt CompileOptions) (*Plan, error) { return plan.CompileMotifs(k, opt) }

// CompileCliqueDAG generates the k-clique plan for degree-oriented DAG
// inputs (the orientation optimization of §V-C); pair it with Graph.Orient.
func CompileCliqueDAG(k int) (*Plan, error) { return plan.CompileCliqueDAG(k) }

// Mine runs the pattern-aware CPU engine on any storage backend: an in-heap
// *Graph, a MappedGraph, or a ShardedGraph (which is scheduled shard-locally).
func Mine(g Store, pl *Plan, opt MineOptions) (MineResult, error) { return core.Mine(g, pl, opt) }

// MineContext is Mine with cancellation/deadline support: once ctx is
// cancelled or its deadline passes, the run stops promptly and returns the
// partial counts and stats accumulated so far together with ctx's error.
func MineContext(ctx context.Context, g Store, pl *Plan, opt MineOptions) (MineResult, error) {
	return core.MineContext(ctx, g, pl, opt)
}

// Simulate runs the cycle-level accelerator model.
func Simulate(g *Graph, pl *Plan, cfg SimConfig) (SimResult, error) { return sim.Simulate(g, pl, cfg) }

// SimulateContext is Simulate under a context: on cancellation the simulated
// scheduler stops dispatching tasks, the PEs drain, and the partial counts
// plus cycle statistics are returned with ctx's error.
func SimulateContext(ctx context.Context, g *Graph, pl *Plan, cfg SimConfig) (SimResult, error) {
	return sim.SimulateContext(ctx, g, pl, cfg)
}

// DefaultSimConfig is the paper's accelerator configuration (§VII-A):
// 1.3 GHz PEs, 32 kB private caches, 8 kB c-map, 4 MB shared L2, DDR4-2666.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// patternsNS groups the pattern catalog under flexminer.Patterns.
type patternsNS struct{}

// Patterns exposes the named pattern catalog (triangle, k-clique, 4-cycle,
// diamond, tailed-triangle, …).
var Patterns patternsNS

func (patternsNS) Triangle() *Pattern       { return pattern.Triangle() }
func (patternsNS) Wedge() *Pattern          { return pattern.Wedge() }
func (patternsNS) FourCycle() *Pattern      { return pattern.FourCycle() }
func (patternsNS) Diamond() *Pattern        { return pattern.Diamond() }
func (patternsNS) TailedTriangle() *Pattern { return pattern.TailedTriangle() }
func (patternsNS) House() *Pattern          { return pattern.House() }
func (patternsNS) KClique(k int) *Pattern   { return pattern.KClique(k) }
func (patternsNS) KCycle(k int) *Pattern    { return pattern.KCycle(k) }
func (patternsNS) KPath(k int) *Pattern     { return pattern.KPath(k) }
func (patternsNS) KStar(k int) *Pattern     { return pattern.KStar(k) }
func (patternsNS) Motifs(k int) []*Pattern  { return pattern.Motifs(k) }

// ByName resolves a catalog pattern from its name (e.g. "diamond", "5-clique").
func (patternsNS) ByName(name string) (*Pattern, error) { return pattern.ByName(name) }
