package graph

// The storage seam: Store abstracts the CSR substrate so mining engines and
// schedulers are independent of where adjacency bytes live — the in-memory
// *Graph, a zero-copy mmap view of a binary CSR file (Mapped), or a
// degree-partitioned set of shard files (Sharded). The interface is cut at
// Adj granularity: one sorted neighbor-list lookup is the only read the DFS
// hot path performs, so a backend only has to answer "where is v's sorted
// neighbor slice" and a handful of O(1) size queries. Anything finer (per
// element access) would put an interface call inside the merge loops;
// anything coarser (bulk iteration) would force backends to materialize.
//
// Paper-figure runners (bench.Table2/Fig7/BaselineSeconds) deliberately keep
// the concrete *Graph: the published numbers were measured against the heap
// substrate, and devirtualized access keeps those goldens byte-identical.

// Store is the read-only view of a CSR graph that the compiler, the CPU
// engine, and the task scheduler consume.
//
// The slice returned by Adj aliases backend storage and MUST NOT be written
// to: for mmap-backed stores it is a view of read-only pages and a write
// kills the process. The adjwrite analyzer (internal/lint) enforces this at the
// source level.
type Store interface {
	// NumVertices returns |V|.
	NumVertices() int
	// NumEdges returns |E| for symmetric graphs, stored arcs for DAGs.
	NumEdges() int64
	// NumArcs returns the number of stored directed arcs.
	NumArcs() int64
	// Degree returns the stored out-degree of v.
	Degree(v VID) int
	// MaxDegree returns the maximum degree over all vertices.
	MaxDegree() int
	// AvgDegree returns the mean number of stored neighbors per vertex.
	AvgDegree() float64
	// Adj returns the sorted neighbor list of v. Read-only; see above.
	Adj(v VID) []VID
	// AdjStart returns the element offset of v's neighbor list within the
	// (virtual) global Col array; the simulator derives addresses from it.
	AdjStart(v VID) int64
	// IsDAG reports whether the graph was degree-oriented (each undirected
	// edge stored once, low rank → high rank).
	IsDAG() bool
}

// Compile-time check that the heap backend satisfies the seam.
var _ Store = (*Graph)(nil)

// Open resolves a graph reference — a CLI -graph argument, a job's path ref —
// to the backend it names: a sharded store directory (IsShardedDir) opens
// its mmap-backed shards; otherwise mmap maps a binary CSR file zero-copy
// (OpenMapped) and the default loads the file onto the heap (Load). The
// closer is never nil and releases whatever was mapped.
func Open(path string, mmap bool) (Store, func() error, error) {
	noop := func() error { return nil }
	switch {
	case IsShardedDir(path):
		s, err := OpenSharded(path)
		if err != nil {
			return nil, noop, err
		}
		return s, s.Close, nil
	case mmap:
		m, err := OpenMapped(path)
		if err != nil {
			return nil, noop, err
		}
		return m, m.Close, nil
	}
	g, err := Load(path)
	if err != nil {
		return nil, noop, err
	}
	return g, noop, nil
}

// Retired — delete with benchmark round two (ROADMAP 1f). The hub-bitmap
// index is gone (DESIGN decision 8) and no store implements HubIndexer;
// benchmark/mining.go still type-asserts for it, the assertion is false, and
// graph.hubindex_s is never observed. Nothing else may name either type.
type (
	HubIndex   struct{}
	HubIndexer interface {
		EnsureHubIndex(topK int) *HubIndex
	}
)
