package main

// workload is one set of inputs the benchmark runs. why is the one-line
// reason it exists; README.md has the paragraph.
//
// An operation is what the workload's user waits for: one mining pass, one sim
// pass, one job (serve_small) or one burst of eight jobs (serve_burst).
//
// procs is the GOMAXPROCS the workload is measured at, and everywhere the
// engine runs on one thread. The two vCPUs of a shared host deliver between
// one and two processors' worth of work, in phases that last seconds: on two
// engine threads identical passes take 0.10 s or 0.45 s and a run's median
// lands on either, on one thread they stay within ±15 %. The mining and sim
// workloads therefore run at GOMAXPROCS 1, where the engine's default thread
// count is 1; the serving workloads need a second processor for the HTTP
// handlers and the clients (on one, the first job of a burst runs to
// completion before the second POST is read, and nothing batches), so they
// run at 2 and every job asks for one worker. Thread scaling and work
// stealing are covered by the sched rows of the traced run, which uses every
// processor of the host for two extra passes.
type workload struct {
	name  string
	why   string
	procs int
	setup func(e *env) (instance, error)
}

// shape is one generated input: an R-MAT graph of 2^scale vertices and edges
// sampled edges with quadrant probabilities a, b, c (and 1-a-b-c). salt is
// mixed into the seed so that two workloads never mine the same graph.
//
// Every input is R-MAT. The paper stand-ins of internal/bench are Chung–Lu
// graphs, but over ten seeds their set-operation work spreads by 0.20 of its
// median and their simulated cycles by more than 1.0 (a few hubs and the ID
// permutation decide both), against 0.03 and 0.12 for R-MAT — and a metric
// whose inputs swing that far cannot hold a bound of 0.15.
//
// Sizes are chosen so that one pass takes a few hundred milliseconds on a
// 2-vCPU box: a run then fits three set-ups, a verification and some fifty
// passes. -quick shrinks every graph sixteen-fold.
type shape struct {
	scale, edges int
	a, b, c      float64
	salt         uint64
}

var (
	cliqueShape     = shape{14, 1 << 17, 0.57, 0.19, 0.19, 0xC11C}   // oriented
	houseShape      = shape{10, 8000, 0.45, 0.22, 0.22, 0x31}        // dense and mildly skewed, the "Mi" role
	listShape       = shape{11, 10000, 0.57, 0.19, 0.19, 0x70}       // the "Yo" role
	storeShape      = shape{15, 1 << 18, 0.57, 0.19, 0.19, 0x5B}     // oriented, on disk
	simShape        = shape{10, 6500, 0.57, 0.19, 0.19, 0xA5}        // the "As" role
	serveSmallShape = shape{11, 13000, 0.57, 0.19, 0.19, 0xA5}       // "As"
	serveBurstShape = shape{11, 14000, 0.45, 0.22, 0.22, 0x31}       // "Mi"
	bruteShape      = shape{6 + 4, 400 * 16, 0.57, 0.19, 0.19, 0xB0} // -quick only: 64 vertices for core.BruteCount
)

var workloads = []workload{
	{
		name:  "clique",
		procs: 1,
		why:   "TC + 4-CL on an oriented RMAT graph: set kernels and kernel dispatch do the work, no aux rows, no frontier reuse",
		setup: setupClique,
	},
	{
		name:  "house",
		procs: 1,
		why:   "SL-house + SL-4cycle on a dense power-law graph: aux arena and frontier memoization dominate, kernels do little",
		setup: setupHouse,
	},
	{
		name:  "list",
		procs: 1,
		why:   "core.List of three 4-vertex patterns with a tallying visitor: leaves are materialized, so count-only shortcuts gain nothing",
		setup: setupList,
	},
	{
		name:  "store",
		procs: 1,
		why:   "TC through graph.Load, OpenMapped and OpenSharded: the store backend and shard-local scheduling are the variable",
		setup: setupStore,
	},
	{
		name:  "sim",
		procs: 1,
		why:   "sim.Simulate at 20 PEs for SL-4cycle, 3-MC and 4-CL: the only workload that runs the cycle model and cmap.HashMap",
		setup: setupSim,
	},
	{
		name:  "serve_small",
		procs: 2,
		why:   "job service, 2 closed-loop tenants, one small job at a time: per-job fixed cost dominates and batching never triggers",
		setup: setupServeSmall,
	},
	{
		name:  "serve_burst",
		procs: 2,
		why:   "job service, 2 tenants posting 8-job bursts behind a round barrier: a 16-deep queue, so DRR order and batching decide",
		setup: setupServeBurst,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
