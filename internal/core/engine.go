// Package core contains the paper's algorithmic core running on the CPU: the
// plan-driven pattern-aware DFS engine (the software baseline FlexMiner is
// compared against — GraphZero [57] with symmetry breaking and frontier
// memoization, or AutoMine [58] when the plan is compiled without symmetry),
// plus the pattern-oblivious ESU engine and a brute-force reference counter
// used as test oracles (§II-A's four applications: plan.CompileApp + Mine).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/setops"
)

// SliceOff disables hub-vertex task slicing (Options.SliceElems).
const SliceOff = -1

// autoSliceElems is the slice width the auto policy picks for parallel
// runs; it matches the accelerator harness (bench.SimConfig) so baseline
// and simulator schedules stay comparable.
const autoSliceElems = 32

// Options configure a mining run.
type Options struct {
	// Threads is the worker count; 0 means GOMAXPROCS. The paper's CPU
	// baseline runs 20 threads.
	Threads int

	// SliceElems controls hub-vertex task slicing (§IV task dispatch): a
	// start vertex whose adjacency exceeds this many elements is split into
	// several independent sub-tasks, so one power-law hub cannot serialize
	// a worker. 0 (the default) picks automatically — slicing at
	// autoSliceElems for parallel runs, none single-threaded; SliceOff
	// disables slicing; any positive value is used as-is. Counts are
	// invariant under slicing; only scheduling (and Stats.Tasks) changes.
	SliceElems int

	// Kernel selects the set-operation kernels (default KernelAuto: input-aware
	// local-row/c-map scan/galloping/merge selection, closed forms, and the
	// auxiliary rows lowering keeps — aux.go). Counts are invariant
	// under this policy; only CPU wall-clock and the per-kernel Stats
	// counters change. The simulator ignores it — SIU/SDU cycle accounting
	// is always merge-model (see kernels.go).
	Kernel KernelPolicy

	// HubBitmaps is read by nothing. Retired — delete with benchmark round
	// two (ROADMAP 1f): the hub-bitmap index it sized is gone (DESIGN
	// decision 8) and only benchmark/mining.go's baseline literal still
	// sets it.
	HubBitmaps int

	// AuxGraph is read by nothing. Retired — delete with benchmark round two
	// (ROADMAP 1f): auxiliary rows are a lowering decision under KernelAuto
	// (prog.go, auxNodes; DESIGN decision 14) and only benchmark/mining.go's
	// two option literals still set it.
	AuxGraph AuxMode

	// Trace, when non-nil, receives scheduler events (task completions) and
	// per-task kernel-dispatch summaries. Tracing never changes counts,
	// stats, or scheduling — a nil Trace costs each task one pointer test. With >1 threads, event interleaving (and therefore
	// virtual-clock timestamps) is schedule-dependent; byte-stable traces
	// come from the simulator, whose coordinator serializes emission.
	Trace *obs.Tracer

	// SchedHooks observe the scheduler (task retirements) during the run.
	// Only benchmark/ sets them — the job service's progress feed is
	// OnTaskDone — and ROADMAP 1f deletes the field. Callbacks run on worker
	// goroutines; like tracing, they must not mutate engine state and never
	// affect counts or stats. OnTask's task names the caller's vertex, also
	// where the engine mines a degree-ordered copy (degreeOrdered).
	SchedHooks sched.Hooks

	// OnTaskDone, when non-nil, fires after every completed task with the
	// worker index and the number of raw (pre-divisor) matches the task
	// produced — the partial-count signal behind a job's "progress". It runs
	// on worker goroutines; implementations must be cheap and
	// concurrency-safe (atomics).
	OnTaskDone func(worker int, matches int64)
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats aggregates per-run instrumentation. The three kernel counters
// attribute set-operation work to the kernel that did it, so -kernel auto and
// -kernel merge runs are comparable: SetOpIterations counts only merge-loop
// iterations actually executed (the SIU/SDU work proxy), GallopProbes counts
// galloping element comparisons, BitmapProbes counts c-map accesses (byte
// probes, mark/unmark writes, distinctness probes — a fused scan of one row under
// two masks charges each mask it answers, as two scans would) and local-row accesses
// (position-map writes and lookups, row-build probes, row words read) and
// far-side counter accesses (an increment and a reset per counter — per 64-byte
// line where one clear zeroes them —, decision 24; a hoisted sweep's too, and one
// read per element it gathers, decision 27) and reads of a heap graph's arc index (one
// a slot: decisions 29 and 31), and
// Searches the binary searches none of them sees (DESIGN.md decision 20).
// Counts and Candidates are the invariants across kernel policies — every
// policy walks the same tree of one labelled graph (a KernelAuto count may mine a
// heap graph's degree-ordered copy, degreeOrdered: its Stats are the copy's);
// the kernel counters are not, nor are
// FrontierReuses and Searches — under KernelAuto they fall where a c-map scan or
// a local row replaces a frontier+residual operation, or a probe, a row limit or
// a scan that stops at its bound a search — nor Extensions, the work proxy that falls by what ClosedForms
// counted instead of extending (DESIGN.md decisions 22 to 24, and 27: a gathering hoisted
// sweep extends none of its candidates and is one closed form, its leaf one count per list).
type Stats struct {
	Tasks           int64 // scheduled tasks executed (sub-tasks when slicing)
	Extensions      int64 // vertices pushed onto ancestor stacks
	Candidates      int64 // candidates emitted after pruning
	SetOpIterations int64 // merge-loop iterations (SIU/SDU work proxy)
	GallopProbes    int64 // galloping-kernel element comparisons
	BitmapProbes    int64 // dense-structure accesses: the c-map's, the local rows' (local.go), the far-side counters' and the arc index's
	LocalRows       int64 // local bit rows built
	ClosedForms     int64 // nodes counted instead of extended: closed forms, factor lists, far-side and hoisted sweeps (prog.go, closedForms, factorNodes, farSides, hoistSweeps)
	FrontierReuses  int64 // candidate lists built from a memoized frontier
	Searches        int64 // binary searches: finite-bound prefixes no scan ends itself, positions, memberships

	// LeafCountsSkippedMaterialize counts leaf evaluations that produced
	// their count via a counting kernel without materializing the
	// candidate list (the count-only leaf optimization).
	LeafCountsSkippedMaterialize int64

	// Auxiliary-graph counters (aux.go): rows materialized into the arena
	// and lookups served from a live row.
	AuxBuilt  int64
	AuxReused int64

	// AuxBytesPeak is the largest number of live auxiliary-row bytes any
	// single task reached. Workers run tasks concurrently, so peaks merge by
	// max, not sum — a sum would depend on which worker ran which task.
	AuxBytesPeak int64
}

func (s *Stats) add(o *Stats) {
	s.Tasks += o.Tasks
	s.Extensions += o.Extensions
	s.Candidates += o.Candidates
	s.SetOpIterations += o.SetOpIterations
	s.GallopProbes += o.GallopProbes
	s.BitmapProbes += o.BitmapProbes
	s.LocalRows += o.LocalRows
	s.ClosedForms += o.ClosedForms
	s.FrontierReuses += o.FrontierReuses
	s.Searches += o.Searches
	s.LeafCountsSkippedMaterialize += o.LeafCountsSkippedMaterialize
	s.AuxBuilt += o.AuxBuilt
	s.AuxReused += o.AuxReused
	if o.AuxBytesPeak > s.AuxBytesPeak {
		s.AuxBytesPeak = o.AuxBytesPeak
	}
}

// Result is the outcome of a mining run: one count per plan pattern.
type Result struct {
	Counts []int64
	Stats  Stats
}

// Count returns the single-pattern count, or 0 when the run produced no
// counts (a cancelled run, or an empty multi-pattern plan).
func (r Result) Count() int64 {
	if len(r.Counts) == 0 {
		return 0
	}
	return r.Counts[0]
}

// Engine mines a graph according to a compiled plan. It holds the plan's
// lowered exec program (prog.go) and, once the first run asked for it, the
// ordered task list; both are read-only and shared by every run and worker,
// so one engine serves repeated and concurrent Mine calls.
type Engine struct {
	g     graph.Store
	old   []graph.VID // where g is the caller's graph in degree order (degreeOrdered): old[v] is v's caller ID
	o     Options
	prog  *program
	visit Visitor // set by List: one call per match instead of bulk leaf counts

	tasksOnce sync.Once
	tasks     []sched.Task
}

// NewEngine validates the plan/graph pairing and lowers the plan into the
// engine's exec program. Construction is O(plan), except that the first engine
// whose plan mines a heap graph in degree order builds that graph's copy.
func NewEngine(g graph.Store, pl *plan.Plan, o Options) (*Engine, error) {
	return newEngine(g, pl, o, nil)
}

func newEngine(g graph.Store, pl *plan.Plan, o Options, visit Visitor) (*Engine, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if pl.RequiresDAG && !g.IsDAG() {
		return nil, fmt.Errorf("core: plan %q requires an oriented DAG input (use graph.Orient)", pl.Patterns[0].Name())
	}
	if !pl.RequiresDAG && g.IsDAG() {
		return nil, fmt.Errorf("core: plan %q requires a symmetric graph, got a DAG", pl.Patterns[0].Name())
	}
	o = o.withDefaults()
	e := &Engine{g: g, o: o, prog: lower(g, pl, o, visit != nil), visit: visit}
	if h, ok := g.(*graph.Graph); ok && degreeOrdered(e.prog) {
		e.g, e.old = h.DegreeOrdered()
	}
	return e, nil
}

// sliceElems resolves the slicing policy against the engine's input graph.
func (e *Engine) sliceElems() int {
	switch {
	case e.o.SliceElems > 0:
		return e.o.SliceElems
	case e.o.SliceElems < 0:
		return 0
	}
	// Auto: a lone worker gains nothing from sub-vertex tasks, and slicing
	// only matters when hubs exist at all.
	if e.o.Threads <= 1 || e.g.MaxDegree() <= autoSliceElems {
		return 0
	}
	return autoSliceElems
}

// taskList expands the vertex set into (possibly hub-sliced) tasks and orders
// them degree-descending, once per engine. The scheduler reads the slice
// through its cursor and never writes it, so concurrent runs share it.
func (e *Engine) taskList() []sched.Task {
	e.tasksOnce.Do(func() {
		e.tasks = sched.Expand(e.g, e.sliceElems())
		sched.OrderByDegreeDesc(e.g, e.tasks)
	})
	return e.tasks
}

// TaskCount reports how many scheduler tasks a Mine call will dispatch under
// the engine's slicing policy — the job service uses it to size a batch's
// progress denominator before the run starts.
func (e *Engine) TaskCount() int { return len(e.taskList()) }

// Mine runs the parallel DFS over all start vertices and returns per-pattern
// counts. It is MineContext without cancellation.
func (e *Engine) Mine() Result {
	r, err := e.MineContext(context.Background())
	rethrow(err)
	return r
}

// rethrow keeps crash semantics for the entry points that take no context: a
// task's panic, which the scheduler hands MineContext as an error, is raised again.
func rethrow(err error) {
	if pe := (*sched.PanicError)(nil); errors.As(err, &pe) {
		panic(pe.Value)
	}
}

// MineContext is Mine under a context: the run stops promptly once ctx is
// cancelled or its deadline passes, returning the partial counts and stats
// accumulated so far together with ctx's error — or, if a task panicked, with
// the scheduler's *sched.PanicError. It is the shared execution
// path of Mine, List and ListContext: order the engine's task list
// degree-descending and let the workers claim it front to back.
func (e *Engine) MineContext(ctx context.Context) (Result, error) {
	tasks := e.taskList()
	threads := e.o.Threads
	if threads > len(tasks) && len(tasks) > 0 {
		threads = len(tasks)
	}
	if threads < 1 {
		threads = 1
	}
	workers := make([]*worker, threads)
	for t := range workers {
		workers[t] = newWorker(e.g, e.prog, e.o)
		workers[t].visit = e.visit
		workers[t].old = e.old
		workers[t].ctxDone = ctx.Done()
		workers[t].widx = t
	}
	onDone := e.o.OnTaskDone
	run := func(t int, task sched.Task) bool {
		w := workers[t]
		if onDone == nil {
			return w.runTask(task)
		}
		var before int64
		for _, c := range w.counts {
			before += c
		}
		ok := w.runTask(task)
		var after int64
		for _, c := range w.counts {
			after += c
		}
		onDone(t, after-before)
		return ok
	}
	hooks := e.o.SchedHooks
	if on := hooks.OnTask; on != nil && e.old != nil { // name the caller's vertex, as the trace does
		hooks.OnTask = func(w int, t sched.Task) {
			t.V0 = e.old[t.V0]
			on(w, t)
		}
	}
	err := sched.RunHooked(ctx, threads, tasks, run, hooks)
	pl := e.prog.pl
	total := Result{Counts: make([]int64, len(pl.Patterns))}
	for _, w := range workers {
		for i, c := range w.counts {
			total.Counts[i] += c
		}
		total.Stats.add(&w.stats)
	}
	for i := range total.Counts {
		total.Counts[i] /= pl.CountDivisor[i]
	}
	return total, err
}

// Mine is the convenience one-shot: build an engine and run it.
func Mine(g graph.Store, pl *plan.Plan, o Options) (Result, error) {
	e, err := NewEngine(g, pl, o)
	if err != nil {
		return Result{}, err
	}
	return e.Mine(), nil
}

// MineContext is the one-shot with cancellation/deadline support; on ctx
// expiry it returns the partial counts mined so far plus ctx's error.
func MineContext(ctx context.Context, g graph.Store, pl *plan.Plan, o Options) (Result, error) {
	e, err := NewEngine(g, pl, o)
	if err != nil {
		return Result{}, err
	}
	return e.MineContext(ctx)
}

// worker holds the per-thread DFS state: the ancestor stack and the
// per-level candidate buffers (which double as memoized frontiers).
type worker struct {
	g    graph.Store
	prog *program
	o    Options

	emb     []graph.VID    // ancestor stack
	pos     []int          // pos[d]: index of emb[d] in the list interior level d iterates
	levels  [][]graph.VID  // per-level candidate buffers / frontiers
	scratch [2][]graph.VID // ping-pong buffers for chained set operations

	// Auxiliary-graph runtime (aux.go): one pooled state per plan.AuxSpec
	// (nil when lowering kept none) and the live-row byte ledger behind
	// Stats.AuxBytesPeak.
	aux     []auxState
	auxLive int64

	// sliceLo/sliceHi restrict the current task's level-1 adjacency range
	// (hub slicing; sliceHi < 0 means unrestricted).
	sliceLo, sliceHi int

	counts []int64
	stats  Stats
	weight int64 // below a factor node: the vertices its level can still take (weighted)

	// trace receives this worker's per-task events (nil when disabled);
	// widx is the worker index used as the trace thread id; old maps a task's
	// v0 back to the caller's ID (Engine.old).
	trace *obs.Tracer
	widx  int
	old   []graph.VID

	// Cooperative cancellation: ctxDone is polled every cancelPollPeriod
	// extensions; once it fires, stopped short-circuits the DFS.
	ctxDone    <-chan struct{}
	stopped    bool
	cancelPoll uint

	// visit is invoked once per full match at leafVisit nodes (see List).
	visit Visitor

	// Connectivity map (kernels.go): bit L of cm[x] is set iff x is in
	// cmRows[L], the prefix of emb[L]'s cmDeg[L]-long adjacency that the
	// marked level L holds inserted. nil unless the program marks a level.
	cm     []uint8
	cmRows [cmLevels][]graph.VID
	cmDeg  [cmLevels]int

	loc localState // local rows (local.go); untouched unless the program has a local node

	memo *graph.ArcMemo // the heap graph's arc index, where the program reads it (arcCounts, halfSums)

	// far[x] counts the vertices of a list that x is adjacent to: of the list of one
	// far-side sweep while it runs, or of hrows, the row of owner hown's vertex, for
	// the hoisted sweeps below hown until it descends again (hown nil: stale; hbuilt
	// unset: one sweep ran under it, none built). The counts of hrows are zeroed by
	// the next build or far-side sweep, so the two share the array (DESIGN.md
	// decision 27); nil until either runs.
	far    []uint32
	hown   *node
	hbuilt bool
	hrows  []graph.VID
	hadds  int64 // the increments hrows' rows made so far (farReset)
}

// cancelPollPeriod spaces the cancellation polls (a power of two): frequent
// enough to abandon a hub subtree within microseconds, rare enough to stay
// off the extension hot path.
const cancelPollPeriod = 1 << 10

// cancelled polls the run's cancellation signal at most once per
// cancelPollPeriod calls and latches the result into w.stopped.
func (w *worker) cancelled() bool {
	if w.stopped {
		return true
	}
	if w.cancelPoll++; w.cancelPoll&(cancelPollPeriod-1) != 0 || w.ctxDone == nil {
		return false
	}
	select {
	case <-w.ctxDone:
		w.stopped = true
	default:
	}
	return w.stopped
}

func newWorker(g graph.Store, p *program, o Options) *worker {
	k := p.pl.K
	w := &worker{
		g:      g,
		prog:   p,
		o:      o,
		emb:    make([]graph.VID, k),
		pos:    make([]int, k),
		levels: make([][]graph.VID, k),
		aux:    newAuxStates(g, p),
		counts: make([]int64, len(p.pl.Patterns)),
		trace:  o.Trace,
	}
	for i := range w.levels {
		w.levels[i] = make([]graph.VID, 0, g.MaxDegree())
	}
	// Pre-size the chained-merge scratch to the largest possible operand so
	// the first hub task doesn't regrow it inside the DFS hot path.
	for i := range w.scratch {
		w.scratch[i] = make([]graph.VID, 0, g.MaxDegree())
	}
	if p.marks {
		w.cm = make([]uint8, g.NumVertices())
	}
	if p.arcs { // lower reads the index on a heap graph only
		w.memo = g.(*graph.Graph).ArcMemo()
	}
	return w
}

// runTask explores the subtree rooted at the task's start vertex (restricted
// to its level-1 adjacency slice when the task is a hub sub-task) and reports
// whether the worker may continue (false once cancellation latched).
func (w *worker) runTask(t sched.Task) bool {
	var before Stats
	if w.trace.Enabled() {
		before = w.stats
	}
	w.stats.Tasks++
	root := w.prog.root
	w.emb[0] = t.V0
	w.sliceLo, w.sliceHi = t.Lo, t.Hi
	if !w.prog.local || !w.localTask() {
		w.descend(root)
	}
	if w.trace.Enabled() {
		w.emitTaskTrace(t, &before)
	}
	return !w.stopped
}

// walk matches the vertex for node n and recurses.
func (w *worker) walk(n *node) {
	if w.stopped {
		return
	}
	if n.fac != nil {
		w.weighted(n)
		return
	}
	if n.mode == leafCount {
		cnt := w.count(n)
		cands := cnt
		if cnt > 0 && (n.closed.choose > 1 || n.closed.prod != nil) {
			cnt, cands = w.closed(n, cnt, nil)
		}
		w.stats.Candidates += cands
		w.counts[n.patternIdx] += cnt
		return
	}
	if n.hoist != nil && w.hoistSweep(n) {
		return
	}
	if n.half != 0 {
		w.halfSum(n)
		return
	}
	if w.loc.on && (n.sweep == sweepLocal || n.sweep == sweepPair) {
		w.localSweep(n)
		return
	}
	cands := w.materialize(n)
	w.stats.Candidates += int64(len(cands))
	depth := n.depth
	if n.mode == leafVisit {
		w.counts[n.patternIdx] += int64(len(cands))
		for _, v := range cands {
			w.emb[depth] = v
			w.visit(w.emb[:depth+1], n.patternIdx)
		}
		return
	}
	if n.far != nil && len(cands) > 0 {
		w.farSide(n, cands)
	}
	if len(n.children) == 0 { // they were its twins, all of them
		return
	}
	switch n.sweep {
	case noSweep, sweepPair: // the loop below; a pair's off the rows
	case sweepScan:
		w.sweep(n, cands)
		return
	default: // count, or local off the rows
		w.sweepCount(n)
		return
	}
	for i, v := range cands {
		if w.cancelled() {
			return
		}
		w.emb[depth], w.pos[depth] = v, i
		w.descend(n)
	}
}

// sweep is the loop of walk over cands, and of descend and count over n's only
// child c, for a node sweepLeaves gave the scan kind: per candidate the cancellation
// poll, emb and pos, and c's one kernel on the candidate's row — an arc memo read
// where arcCounts marked c, the masked scan or, where scanPays declines, chain and
// setOp. What the calls would have charged per candidate is charged once.
func (w *worker) sweep(n *node, cands []graph.VID) {
	c, d, k := n.children[0], n.depth, 0
	var cnt, probes int64
	if c.arc {
		for ; k < len(cands) && !w.cancelled(); k++ {
			w.emb[d], w.pos[d] = cands[k], k
			cnt += w.arcCount(c)
		}
	} else {
		m := c.cmap.scan[0]
		for ; k < len(cands) && !w.cancelled(); k++ {
			w.emb[d], w.pos[d] = cands[k], k
			row := w.g.Adj(w.emb[c.op.Extender])
			if w.scanPays(c.adj, len(row)) {
				cnt += setops.MaskCount(row, w.cm, m.need, m.avoid)
				probes += int64(len(row))
			} else {
				cur, last := w.chain(row, c.adj, setops.NoBound)
				_, x := w.setOp(nil, false, cur, last, setops.NoBound)
				cnt += x
			}
		}
	}
	w.stats.Extensions += int64(k)
	w.stats.LeafCountsSkippedMaterialize += int64(k)
	w.stats.BitmapProbes += probes
	w.stats.Candidates += cnt
	w.counts[c.patternIdx] += cnt
}

// sweepCount is walk's loop over n's list, as materialize left it, for every other
// node sweepLeaves gave a kind, less the descend and walk calls: per candidate the
// poll, emb and pos, count(c) and, for a closed form with m > 0, closed — except
// that an operand sweepLeaves found to name n's level nowhere (once) is counted at
// its first evaluation in the list only, and later ones charge what it charged.
func (w *worker) sweepCount(n *node) {
	c, d, cands := n.children[0], n.depth, w.levels[n.depth]
	var once onceTerms
	var cnt, emitted int64
	k := 0
	for ; k < len(cands) && !w.cancelled(); k++ {
		w.emb[d], w.pos[d] = cands[k], k
		switch m := w.term(c, &once, 0); {
		case m > 0 && (c.closed.choose > 1 || c.closed.prod != nil):
			x, e := w.closed(c, m, &once)
			cnt, emitted = cnt+x, emitted+e
		default:
			cnt, emitted = cnt+m, emitted+m
		}
	}
	w.stats.Extensions += int64(k)
	w.stats.Candidates += emitted
	w.counts[c.patternIdx] += cnt
}

// onceTerms is, during a count sweep, what each once operand — m, A and B by
// index — counted, and the searches that took, once it has been counted (known).
type onceTerms struct {
	val, searches [3]int64
	known         [3]bool
}

// term is count(t) for operand i of a closed form — in a count sweep (once not
// nil), for a once operand, its count in the list, charged as a count is.
func (w *worker) term(t *node, once *onceTerms, i int) int64 {
	switch {
	case once == nil || !t.once:
		return w.count(t)
	case !once.known[i]:
		s := w.stats.Searches
		once.val[i], once.known[i] = w.count(t), true
		once.searches[i] = w.stats.Searches - s
	default:
		w.stats.LeafCountsSkippedMaterialize++
		w.stats.Searches += once.searches[i]
	}
	return once.val[i]
}

// sweepWeighed is weighted's loop over cands for a node sweepLeaves gave the weighed
// kind, and descend, weighted and count over its only child c and c's B: per
// candidate the membership probe, the weight left and, where some is, the poll; then
// one pass over the candidate's row that counts A and B at once — c's count times
// the weight, less B's count where that product is positive —, or count(c) and
// count(B) where scanPays declines either scan. What the calls would have charged is
// charged once: B's leaf and probes only where the walk evaluates B, and every
// candidate's weight, after a cancellation too.
func (w *worker) sweepWeighed(n *node, cands []graph.VID, bound graph.VID) {
	f, c, d, wt := n.fac, n.children[0], n.depth, w.weight
	b := c.fac.minus
	ma, mb := c.cmap.scan[0], b.cmap.scan[0]
	ca, cb := int64(len(c.proof.certain)), int64(len(b.proof.certain)) // no bound: every one is counted
	var ext, leaves, probes, emitted, cnt int64
	for i, v := range cands {
		left := wt
		if w.inFactor(f, v, bound) {
			left--
		}
		emitted += left
		if left <= 0 || w.cancelled() {
			continue
		}
		w.emb[d], w.pos[d] = v, i
		ext++
		row := w.g.Adj(v)
		if !w.scanPays(c.adj, len(row)) || !w.scanPays(b.adj, len(row)) {
			x := mulDiv(w.count(c), left, 1)
			if x > 0 {
				x -= w.count(b)
			}
			cnt += x
			continue
		}
		na, nb := setops.MaskCountPair(row, w.cm, ma.need, ma.avoid, mb.need, mb.avoid)
		x := mulDiv(na-ca, left, 1)
		leaves++
		probes += int64(len(row))
		if x > 0 {
			x -= nb - cb
			leaves++
			probes += int64(len(row))
		}
		cnt += x
	}
	w.stats.Extensions += ext
	w.stats.LeafCountsSkippedMaterialize += leaves
	w.stats.BitmapProbes += probes
	w.stats.Candidates += emitted + cnt
	w.counts[c.patternIdx] += cnt
}

// sliceHead is the part of n's list a hub slice leaves to the tasks before this
// one: the start vertex's adjacency up to the slice, n being at depth 1 with some
// candidate in the slice, so that all of it is below n's bound.
func (w *worker) sliceHead(n *node) []graph.VID {
	if n.depth != 1 || w.sliceHi < 0 {
		return nil
	}
	return w.g.Adj(w.emb[0])[:w.sliceLo]
}

// farSide counts the twin levels that started from a's list (prog.go, farSides)
// from their far corner f: Σ C(far[x], t) over the x below f's bound, far[x]
// being how many vertices of the list x is adjacent to. The sum grows by
// C(k, t−1) with every increment k → k+1, so one sweep suffices and a hub slice
// [lo, hi) is the sweep of the whole [0, hi) less what it had reached at lo.
// Stats.Candidates gets what the levels would have emitted: every subset of two
// to t list vertices the task owns, and the matches. The counters are reset as
// farReset says — all of them at once if a sweep panics.
func (w *worker) farSide(a *node, list []graph.VID) {
	f, head := a.far, w.sliceHead(a)
	lo, hi := int64(len(head)), int64(len(head)+len(list))
	_, emitted := choose(hi, f.twins)
	_, before := choose(lo, f.twins)
	w.stats.Candidates += emitted - hi - before + lo
	if hi < int64(f.twins) {
		return
	}
	w.hoistFlush()
	if w.far == nil {
		w.far = make([]uint32, w.g.NumVertices())
	}
	clean := false
	defer func() {
		if !clean {
			clear(w.far)
		}
	}()
	w.stats.ClosedForms++
	bound := w.bound(f)
	_, adds := w.farSweep(f, head, bound) // for the counters alone: the tasks before this one own these
	out := w.farOut(f, bound)
	cnt, more := w.farSweep(f, list, bound)
	cnt -= w.farOut(f, bound) - out
	clears, cost := w.farReset(adds + more)
	w.stats.BitmapProbes += cost
	if clears {
		clear(w.far)
	} else {
		for _, us := range [2][]graph.VID{head, list} {
			for _, u := range us {
				for _, x := range w.g.Adj(u) {
					if x >= bound {
						break
					}
					w.far[x] = 0
				}
			}
		}
	}
	clean = true
	w.stats.Candidates += cnt
	w.counts[f.patternIdx] += cnt
}

// farLine is how many counters one 64-byte line holds.
const farLine = 64 / 4

// farReset says how the counters are zeroed after adds increments: by one clear
// of the array where it holds at most farLine counters per increment, else by a
// second walk of the rows that took them; and what that costs in dense accesses,
// a line or a counter each. It depends on |V| and the rows alone, so Stats stay
// one block across schedules.
func (w *worker) farReset(adds int64) (clears bool, cost int64) {
	if n := int64(len(w.far)); n <= farLine*adds {
		return true, (n + farLine - 1) / farLine
	}
	return false, adds
}

// farSweep adds the rows of us below bound into the counters and returns what the
// sum grew by and how many counters it incremented, each one dense access.
func (w *worker) farSweep(f *node, us []graph.VID, bound graph.VID) (sum, adds int64) {
	far, t := w.far, f.twins
	for _, u := range us {
		if w.cancelled() {
			break
		}
		row, i := w.g.Adj(u), 0
		for ; i < len(row) && row[i] < bound; i++ {
			x := row[i]
			k := far[x]
			far[x] = k + 1
			if t == 2 {
				sum += int64(k)
			} else {
				c, _ := choose(int64(k), t-1)
				sum += c
			}
		}
		adds += int64(i)
	}
	w.stats.BitmapProbes += adds
	return sum, adds
}

// farOut is what the sum holds, at this point of a sweep, for the NotEqual
// ancestors that f's bound admits: no candidates, so taken out again.
func (w *worker) farOut(f *node, bound graph.VID) (sum int64) {
	for _, j := range f.op.NotEqual {
		if y := w.emb[j]; y < bound {
			c, _ := choose(int64(w.far[y]), f.twins)
			sum += c
		}
	}
	w.stats.BitmapProbes += int64(len(f.op.NotEqual))
	return sum
}

// hoistList is a hoisted node's list L, never materialized: its length k, R less
// the NotEqual ancestors found in R, R being the row of the owner's vertex, and
// those ancestors as bits over n.op.NotEqual.
func (w *worker) hoistList(n *node) (k int, drops uint32) {
	row := w.g.Adj(w.emb[n.hoist.depth])
	k = len(row)
	for i, j := range n.op.NotEqual {
		if w.inRow(n, row, w.emb[j]) {
			drops |= 1 << i
			k--
		}
	}
	return k, drops
}

// inRow reports whether v is in row, the row of n's owner's vertex: one c-map
// probe where the owner's level o marks its whole row, a search otherwise.
func (w *worker) inRow(n *node, row []graph.VID, v graph.VID) bool {
	if o := n.hoist.depth; o < cmLevels && len(row) > 0 && len(w.cmRows[o]) == len(row) {
		w.stats.BitmapProbes++
		return w.cm[v]>>o&1 != 0
	}
	return w.index(row, v) >= 0
}

// hoistSweep counts the only child c of a node hoistSweeps gave an owner over
// its list, as sweep or sweepCount would: Σ over the list of c's masked scan of
// each candidate's row, less c's certain ancestors once per candidate. It reports
// false, having done nothing, where the counters are not ready; walk then
// materializes the list and runs the kind's loop. Stats get the list's
// candidates, one closed form and one leaf, nothing per candidate.
func (w *worker) hoistSweep(n *node) bool {
	if !w.hoistReady(n) {
		return false
	}
	k, drops := w.hoistList(n)
	w.stats.Candidates += int64(k)
	if w.cancelled() {
		return true
	}
	c := n.children[0]
	m := c.cmap.scan[0]
	a, _ := w.hoisted(n, drops, m, m, 1)
	cnt := a - int64(len(c.proof.certain)*k)
	w.stats.ClosedForms++
	w.stats.LeafCountsSkippedMaterialize++
	w.stats.Candidates += cnt
	w.counts[c.patternIdx] += cnt
	return true
}

// hoistWeighed is sweepWeighed for a node hoistSweeps gave an owner, reporting
// false as hoistSweep does. With A and B the masked scans of a candidate's row for
// its leaf c and c's B, less their certain ancestors, and F the factor's list, the
// loop counts Σ_{v∈L} left(v)·A(v) − B(v) = wt·ΣA − Σ_{v∈F} A(v) − ΣB: B is taken
// unguarded, as B ⊆ A and left(v) = 0 only where v is all that F has left, v ∉
// adj(v); F ⊆ L by hoistSweeps, so the weights emitted are wt·|L| − |F| and the
// middle sum is a walk of F. The two sums are one gather, charged one closed form
// and two leaves.
func (w *worker) hoistWeighed(n *node) bool {
	if !w.hoistReady(n) {
		return false
	}
	k, drops := w.hoistList(n)
	f, c, wt := n.fac, n.children[0], w.weight
	b := c.fac.minus
	ma, mb := c.cmap.scan[0], b.cmap.scan[0]
	ca, cb := int64(len(c.proof.certain)), int64(len(b.proof.certain))
	fl := w.levels[f.at.depth]
	var inF, probes, cnt int64
	if n.arc {
		inF = w.arcWalk(fl, ma) - ca*int64(len(fl))
	} else {
		for _, v := range fl {
			r := w.g.Adj(v)
			inF += setops.MaskCount(r, w.cm, ma.need, ma.avoid) - ca
			probes += int64(len(r))
		}
	}
	if !w.cancelled() {
		sa, sb := w.hoisted(n, drops, ma, mb, 2)
		cnt = mulDiv(sa-ca*int64(k), wt, 1) - inF - (sb - cb*int64(k))
		w.stats.ClosedForms++
		w.stats.LeafCountsSkippedMaterialize += 2
	}
	w.stats.BitmapProbes += probes
	w.stats.Candidates += wt*int64(k) - int64(len(fl)) + cnt
	w.counts[c.patternIdx] += cnt
	return true
}

// hoisted returns Σ over n's list of the rows' counts under masks a and b: the
// counters hoistReady built for R, gathered over the shortest row a needs, less
// the rows of the ancestors in drops. masks is how many of the two the caller
// reads; each answered mask is one dense access an element, as is a counter read.
func (w *worker) hoisted(n *node, drops uint32, a, b chainOp, masks int64) (sa, sb int64) {
	var g []graph.VID
	for ls := a.need; ls != 0; ls &= ls - 1 {
		if r := w.cmRows[bits.TrailingZeros8(ls)]; g == nil || len(r) < len(g) {
			g = r
		}
	}
	sa, sb = setops.MaskSumPair(g, w.cm, w.far, a.need, a.avoid, b.need, b.avoid)
	probes := int64(len(g)) * (masks + 1)
	for ; drops != 0; drops &= drops - 1 {
		r := w.g.Adj(w.emb[n.op.NotEqual[bits.TrailingZeros32(drops)]])
		x, y := setops.MaskCountPair(r, w.cm, a.need, a.avoid, b.need, b.avoid)
		sa, sb = sa-x, sb-y
		probes += int64(len(r)) * masks
	}
	w.stats.BitmapProbes += probes
	return sa, sb
}

// hoistBuild zeroes what the counters held and files the rows of R into them for
// own's vertex, a dense access a counter, and charges their reset as farReset
// prices it. It polls for cancellation per row and reports whether it got
// through: the counters are own's (hbuilt) only once every row is in, and hrows
// names the rows to zero before any is — a build cut short, by a cancellation or
// a panicking store, is zeroed whole by the next.
func (w *worker) hoistBuild(own *node, row []graph.VID) bool {
	w.hoistFlush()
	if w.far == nil {
		w.far = make([]uint32, w.g.NumVertices())
	}
	w.hrows = row
	for _, v := range row {
		if w.cancelled() {
			return false
		}
		r := w.g.Adj(v)
		for _, x := range r {
			w.far[x]++
		}
		w.hadds += int64(len(r))
		w.stats.BitmapProbes += int64(len(r))
	}
	_, cost := w.farReset(w.hadds)
	w.stats.BitmapProbes += cost
	w.hown, w.hbuilt = own, true
	return true
}

// hoistReady reports whether n's sweep gathers: the first sweep under its owner's
// vertex builds the counters where more sweeps are to follow — the owner's next
// level has candidates after its position, that level being a loop and not a
// factor's, which holds no position —, and otherwise runs its kind's loop and only
// notes the owner, so that an owner that sweeps once pays nothing for them; the
// second sweep builds them then.
func (w *worker) hoistReady(n *node) bool {
	own, l := n.hoist, n.hoist.depth+1
	switch {
	case w.hown == own && w.hbuilt:
		return true
	case w.hown != own && (n.fac != nil && n.fac.at.depth == l || w.pos[l]+1 >= len(w.levels[l])):
		w.hown, w.hbuilt = own, false
		return false
	}
	return w.hoistBuild(own, w.g.Adj(w.emb[own.depth]))
}

// hoistFlush zeroes the counters of hrows as farReset says, by one clear or a
// second sweep over the same rows; the build paid for it.
func (w *worker) hoistFlush() {
	w.hown = nil
	if clears, _ := w.farReset(w.hadds); clears {
		clear(w.far)
	} else {
		for _, v := range w.hrows {
			for _, x := range w.g.Adj(v) {
				w.far[x] = 0
			}
		}
	}
	w.hrows, w.hadds = nil, 0
}

// weighted is walk at and below a factor node (prog.go, factorNodes). The factor
// node's list is evaluated once, its level left unbound, and its length is the
// weight of the one descent: how many vertices that level can still take. Below it
// a candidate that is itself in the list leaves one fewer, none at 0; a leaf's m
// candidates match m·weight − B times, B of them being in the list. Every node
// adds its Σ weights to Stats.Candidates — what walking the list would have emitted.
func (w *worker) weighted(n *node) {
	f, wt := n.fac, w.weight
	if n.mode == leafCount {
		cnt := mulDiv(w.count(n), wt, 1)
		if cnt > 0 {
			cnt -= w.count(f.minus)
		}
		w.stats.Candidates += cnt
		w.counts[n.patternIdx] += cnt
		return
	}
	if n.hoist != nil && w.hoistWeighed(n) {
		return
	}
	cands := w.materialize(n)
	if f.at == n {
		w.stats.Candidates += int64(len(cands))
		if w.weight = int64(len(cands)); w.weight > 0 {
			w.stats.ClosedForms++
			w.descend(n)
		}
		w.weight = wt
		return
	}
	bound := w.bound(f.at)
	if n.sweep == sweepWeighed {
		w.sweepWeighed(n, cands, bound)
		return
	}
	for i, v := range cands {
		left := wt
		if w.inFactor(f, v, bound) {
			left--
		}
		w.stats.Candidates += left
		if left > 0 && !w.cancelled() {
			w.emb[n.depth], w.pos[n.depth], w.weight = v, i, left
			w.descend(n)
		}
	}
	w.weight = wt
}

// inFactor reports whether v, a candidate below f's factor node, is one of that
// node's: below its bound and adjacent as its op says — one byte probe where
// markLevels marked every level of it —, or found in its list.
func (w *worker) inFactor(f *factor, v, bound graph.VID) bool {
	if f.in == nil {
		return w.index(w.levels[f.at.depth], v) >= 0
	}
	w.stats.BitmapProbes++
	return v < bound && w.holds(f.in[0], v)
}

// descend explores the subtree below n's freshly fixed vertex. An aux
// activation or a c-map mark the node does not carry costs one flag test, no
// call; both are undone on the way back on every path, cancellation included.
// Counters n owns for hoisted sweeps go stale here: they were for its last vertex.
func (w *worker) descend(n *node) {
	w.stats.Extensions++
	if w.hown == n { // a new vertex: the counters hoisted sweeps gather from are stale
		w.hown = nil
	}
	if n.builds != nil {
		w.auxActivate(n)
	}
	if n.cmap.marked {
		w.mark(n)
	}
	for _, c := range n.children {
		w.walk(c)
	}
	if n.cmap.marked {
		w.unmark(n)
	}
	if n.builds != nil {
		w.auxRelease(n)
	}
}

// bound returns the effective ID upper bound: the minimum over the op's
// symmetry-order bounds, or NoBound.
func (w *worker) bound(n *node) graph.VID {
	bs := n.op.UpperBounds
	if len(bs) == 0 {
		return setops.NoBound
	}
	b := w.emb[bs[0]]
	for _, idx := range bs[1:] {
		if v := w.emb[idx]; v < b {
			b = v
		}
	}
	return b
}

// resolve returns n's base candidate list under bound — an auxiliary row, a
// memoized frontier, or the extender's (possibly hub-sliced) adjacency —
// together with the chain still to apply on top of it: the residual, the full
// chain, or its one masked op where a c-map scan of the extender's row pays.
// It is the one place an operand source is chosen; materialize and count both
// start here.
func (w *worker) resolve(n *node, bound graph.VID) ([]graph.VID, []chainOp) {
	switch n.src {
	case srcAux:
		// Auxiliary-graph substitution (aux.go): swap the extender's full
		// adjacency for the materialized pruned row; the spec's folded
		// sources are already applied, leaving only the residuals.
		if row, ok := w.auxRow(n); ok {
			return w.bounded(row, bound), n.res
		}
	case srcFrontier:
		front := w.levels[n.srcIdx]
		if n.boundAt == n.srcIdx {
			front = front[:w.pos[n.boundAt]] // the bound is the frontier's own loop vertex
		} else {
			front = w.bounded(front, bound)
		}
		if n.cmap.scan != nil {
			if row := w.extenderRow(n, bound); w.scanPays(n.adj, len(row)) && w.outreads(n, front, len(row)) {
				return row, n.cmap.scan
			}
		}
		w.stats.FrontierReuses++
		return front, n.res
	}
	row := w.extenderRow(n, bound)
	if n.cmap.scan != nil && w.scanPays(n.adj, len(row)) {
		return row, n.cmap.scan
	}
	return row, n.adj
}

// extenderRow is the adjacency of n's extender under bound.
func (w *worker) extenderRow(n *node, bound graph.VID) []graph.VID {
	adj := w.g.Adj(w.emb[n.op.Extender])
	if n.depth == 1 && w.sliceHi >= 0 {
		// Hub slicing: this task covers only elements [sliceLo, sliceHi)
		// of the start vertex's adjacency (mirrors the PE's slice path).
		adj = adj[min(w.sliceLo, len(adj)):min(w.sliceHi, len(adj))]
	}
	if b := n.boundAt; b != plan.NoLevel && n.src != srcFrontier {
		// The bounding vertex came out of this very row, at pos[b] of the
		// prefix — or hub slice, when b is the sliced level — it was cut to.
		end := w.pos[b]
		if b == 1 && w.sliceHi >= 0 {
			end += w.sliceLo
		}
		return adj[:end]
	}
	return w.bounded(adj, bound)
}

// bounded and index are setops.Bounded and setops.Index charged to Stats.Searches:
// every binary search the DFS executes is one of them (a NoBound prefix is none).
func (w *worker) bounded(a []graph.VID, bound graph.VID) []graph.VID {
	if bound == setops.NoBound {
		return a
	}
	w.stats.Searches++
	return setops.Bounded(a, bound)
}

func (w *worker) index(a []graph.VID, x graph.VID) int {
	w.stats.Searches++
	return setops.Index(a, x)
}

// chain runs every operation of ops but the last through the ping-pong
// scratch (cur — graph adjacency, a frontier or an aux row — is never
// written) and returns the running list with the pending last operation, so
// the caller picks how setOp finishes it: straight into a level buffer or the
// aux arena, or as a count. ops must not be empty.
func (w *worker) chain(cur []graph.VID, ops []chainOp, bound graph.VID) ([]graph.VID, chainOp) {
	last := len(ops) - 1
	for k, o := range ops[:last] {
		cur, _ = w.setOp(w.scratch[k&1][:0], true, cur, o, bound)
		w.scratch[k&1] = cur
	}
	return cur, ops[last]
}

// materialize computes n's qualified candidate list into the per-level
// buffer: base and symmetry bound from resolve, connectivity via the
// policy-selected set kernels (kernels.go), then the explicit distinctness
// checks.
func (w *worker) materialize(n *node) []graph.VID {
	if n.local.on && w.loc.on {
		return w.localList(n)
	}
	bound := w.bound(n)
	base, ops := w.resolve(n, bound)
	out := w.levels[n.depth][:0]
	if len(ops) == 0 {
		out = append(out, base...)
	} else {
		cur, last := w.chain(base, ops, bound)
		out, _ = w.setOp(out, true, cur, last, bound)
	}
	out = w.dropAncestors(out, n)
	w.levels[n.depth] = out
	return out
}

// count is materialize for a count-only leaf: same base, same chain; only
// the last operation runs as a counting kernel and the distinctness filter
// becomes an adjustment: an excluded ancestor below the bound was counted iff it
// is a candidate — settled at lowering, probed in the c-map, or searched for.
func (w *worker) count(n *node) int64 {
	w.stats.LeafCountsSkippedMaterialize++
	if n.local.on && w.loc.on {
		_, cnt := w.localSet(n)
		return cnt
	}
	bound := w.bound(n)
	var cur []graph.VID
	var cnt int64
	var last chainOp
	ops := n.cmap.scan
	switch {
	case n.arc:
		cnt = w.arcCount(n)
	case n.src == srcAdj && n.boundAt == plan.NoLevel && ops != nil:
		cnt, cur, last = w.rowCount(n, bound)
	default:
		cur, ops = w.resolve(n, bound)
		cnt = int64(len(cur))
		if len(ops) > 0 {
			cur, last = w.chain(cur, ops, bound)
			_, cnt = w.setOp(nil, false, cur, last, bound)
		}
	}
	for _, j := range n.proof.certain {
		if w.emb[j] < bound {
			cnt--
		}
	}
suspects:
	for i := range n.proof.suspects {
		s := &n.proof.suspects[i]
		v := w.emb[s.j]
		switch {
		case v >= bound:
		case !s.probe:
			// Counted iff it survived the prefix (∈ cur) and the last operation.
			if w.index(cur, v) >= 0 && (len(ops) == 0 || w.holds(last, v)) {
				cnt--
			}
		default:
			for k, o := range s.ops {
				w.stats.BitmapProbes++
				if w.cm[w.emb[s.at[k]]]>>o.level&1 == 0 {
					continue suspects
				}
			}
			cnt--
		}
	}
	return cnt
}

// rowCount is count's kernel for a node that scans its extender's own row — no
// frontier, aux row or positional bound: its candidates below bound before count's
// adjustments, with the list and the operation count's suspects are checked against.
// Where scanPays holds for the whole row, and so for any prefix of it, one masked
// pass stops at the bound (setops.MaskCountBelow) and nothing is searched for;
// elsewhere the prefix is searched for and the kernel picked on it, as resolve does.
// No hub slice cuts the row: a chain read at depth 1 is never masked (markLevels).
func (w *worker) rowCount(n *node, bound graph.VID) (cnt int64, cur []graph.VID, last chainOp) {
	row, ops := w.g.Adj(w.emb[n.op.Extender]), n.cmap.scan
	if w.scanPays(n.adj, len(row)) {
		cnt, k := setops.MaskCountBelow(row, w.cm, ops[0].need, ops[0].avoid, bound)
		w.stats.BitmapProbes += int64(k)
		return cnt, row[:k], ops[0]
	}
	if row = w.bounded(row, bound); !w.scanPays(n.adj, len(row)) {
		ops = n.adj
	}
	cur, last = w.chain(row, ops, bound)
	_, cnt = w.setOp(nil, false, cur, last, bound)
	return cnt, cur, last
}

// arcCount is count's kernel for a node arcCounts marked: the common-neighbour count
// of the arc from emb[a] to emb[e], e being n's extender, whose loop position in
// a's row — past a hub slice's head at depth 1 — is the arc's there.
func (w *worker) arcCount(n *node) int64 {
	e := n.op.Extender
	a, i := bits.TrailingZeros8(n.cmap.scan[0].need), w.pos[e]
	if e == 1 {
		i += w.sliceLo
	}
	return w.arcRead(w.g.AdjStart(w.emb[a]) + int64(i))
}

// arcWalk is hoistWeighed's walk of the factor's list F for a node arcCounts marked:
// Σ over v ∈ F of the common-neighbour count of the arc from emb[a] to v, one
// forward cursor finding each v in a's row, which holds F in order.
func (w *worker) arcWalk(f []graph.VID, m chainOp) (sum int64) {
	a := bits.TrailingZeros8(m.need)
	row, base := w.g.Adj(w.emb[a]), w.g.AdjStart(w.emb[a])
	j := 0
	for _, v := range f {
		for row[j] < v {
			j++
		}
		sum += w.arcRead(base + int64(j))
	}
	return sum
}

// arcRead returns the common-neighbour count of the arc at slot s of the graph's
// index, one dense access (DESIGN.md decision 29).
func (w *worker) arcRead(s int64) int64 {
	w.stats.BitmapProbes++
	return w.memo.Count(s)
}

// halfSum is walk at a node halfSums marked: Σ over its list, all of a's row, a
// being its extender, of its only child's count is the sum of a's index slots over
// half, and the child's closed form, linear in that count, is taken once of the
// sum. Hub slicing cuts the list at depth 1 alone: there the task with the first
// slice sums the whole row, and a later slice, whose head the first one covered,
// counts nothing below its list. Stats.Candidates gets what the walk emits, summed
// over a hub's tasks — each task's list, then each candidate's count and matches,
// linear in the count —; each slot read is one dense access, and nothing is extended.
func (w *worker) halfSum(n *node) {
	k := int64(len(w.extenderRow(n, setops.NoBound)))
	if len(w.sliceHead(n)) > 0 {
		w.stats.Candidates += k
		return
	}
	c, u := n.children[0], w.emb[n.op.Extender]
	lo, deg := w.g.AdjStart(u), int64(w.g.Degree(u))
	m := w.memo.Sum(lo, lo+deg) / n.half
	w.stats.BitmapProbes += deg
	cnt, cands := m, m
	if m > 0 && c.closed.prod != nil {
		cnt, cands = w.closed(c, m, nil)
	}
	w.stats.Candidates += k + cands
	w.counts[c.patternIdx] += cnt
}

// closed evaluates n's closed form (prog.go, closedForms) over its m > 0
// candidates: the matches under them, and the candidates the walk it replaces
// would have emitted at n's level and below it, so that Stats.Candidates reads
// the same under every kernel policy. once is a count sweep's (sweepCount).
func (w *worker) closed(n *node, m int64, once *onceTerms) (cnt, cands int64) {
	w.stats.ClosedForms++
	if n.closed.prod == nil {
		lo := int64(len(w.sliceHead(n))) // a hub slice is [lo, lo+m) of its list: C(lo+m, ·) − C(lo, ·)
		cnt, cands = choose(lo+m, n.closed.choose)
		c0, s0 := choose(lo, n.closed.choose)
		return cnt - c0, cands - s0
	}
	a, b := w.term(n.closed.prod[0], once, 1), int64(0)
	switch {
	case a == 0: // B ⊆ A
		return 0, m
	case n.closed.prodAll:
		b = m
	case len(n.closed.prod) > 1:
		b = w.term(n.closed.prod[1], once, 2)
	}
	cnt = mulDiv(m, a-1, 1) + m - b // m·A − B, no term of it above the result
	return cnt, m + cnt
}

// choose returns C(m, t) and C(m, 1) + … + C(m, t): what t levels, each the
// prefix of the one above it, match and emit below a list of m. Each binomial
// comes from the one before it; they rise with k wherever one could overflow
// (t < pattern.MaxVertices), so C(m, t) is exact whenever it fits an int64.
func choose(m int64, t int) (c, sum int64) {
	c, sum = m, m
	for k := int64(2); k <= int64(t) && c > 0; k++ {
		c = mulDiv(c, m-k+1, k)
		sum += c
	}
	return c, sum
}

// mulDiv is a·b/c through the 128-bit product: exact whenever the quotient fits
// an int64, math.MaxInt64 when it does not — such a count fits Result.Counts
// under no evaluation order.
func mulDiv(a, b, c int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		return math.MaxInt64
	}
	q, _ := bits.Div64(hi, lo, uint64(c))
	return int64(min(q, math.MaxInt64))
}

// dropAncestors applies the explicit inequality checks the compiler could
// not prove away: it cuts the NotEqual ancestors out of the sorted list in
// place, one search each, so a list whose node has none is never walked a
// second time.
func (w *worker) dropAncestors(list []graph.VID, n *node) []graph.VID {
	for _, j := range n.op.NotEqual {
		if i := w.index(list, w.emb[j]); i >= 0 {
			list = append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// emitTaskTrace records the finished task and its kernel-dispatch summary:
// one sched event per task, plus one kernel event attributing the task's
// set-operation work to the kernels that executed it (the delta of the
// per-kernel Stats counters across the task).
func (w *worker) emitTaskTrace(t sched.Task, before *Stats) {
	v0 := t.V0
	if w.old != nil {
		v0 = w.old[v0]
	}
	w.trace.Emit(obs.CatSched, "task", w.widx, 0,
		obs.Arg{Key: "v0", Val: int64(v0)},
		obs.Arg{Key: "extensions", Val: w.stats.Extensions - before.Extensions},
		obs.Arg{Key: "candidates", Val: w.stats.Candidates - before.Candidates})
	w.trace.Emit(obs.CatKernel, "dispatch", w.widx, 0,
		obs.Arg{Key: "merge_iters", Val: w.stats.SetOpIterations - before.SetOpIterations},
		obs.Arg{Key: "gallop_probes", Val: w.stats.GallopProbes - before.GallopProbes},
		// Dense-structure accesses, as Stats.BitmapProbes counts them: the c-map's
		// probes and mark/unmark writes, the local rows' and the far-side counters'.
		obs.Arg{Key: "bitmap_probes", Val: w.stats.BitmapProbes - before.BitmapProbes})
}
