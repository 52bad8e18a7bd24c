package sim

// The processing element (§IV-A): extender FSM + pruner + SIU/SDU + ancestor
// stack + private cache with frontier-list table + c-map scratchpad. The
// walker mirrors the CPU engine's candidate logic exactly (the equality of
// their counts is enforced by tests) while charging cycles for every
// microarchitectural event.

import (
	"math"

	"repro/internal/cmap"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/setops"
)

type pe struct {
	id  int
	sim *simulator

	clock int64
	busy  int64 // cycles doing useful work
	stall int64 // cycles waiting for memory

	// bkt attributes every clock advance to one Breakdown bucket (Idle is
	// filled in by collect, from the retirement-to-makespan gap).
	bkt Breakdown

	l1       *cache
	l1Hits   int64
	l1Misses int64

	cm        cmap.Map
	cmLevelOK []bool

	emb    []graph.VID
	levels [][]graph.VID
	mergeA []graph.VID
	mergeB []graph.VID

	yield func(event) bool // iter.Pull's: parks the PE at a shared event
	reply reply            // what the coordinator left before resuming it

	// sliceLo/sliceHi restrict the current task's level-1 adjacency range
	// (task slicing; hi == -1 means unrestricted).
	sliceLo, sliceHi int

	counts   []int64
	siuIters int64
	sduIters int64
	tasks    int64
	extends  int64

	// retired flips once the scheduler runs dry and the PE yields evDone;
	// the coordinator reads it for the pes_active time-series value.
	retired bool
}

func newPE(id int, s *simulator) *pe {
	cfg := s.cfg
	p := &pe{
		id:        id,
		sim:       s,
		l1:        newCache(cfg.PrivateCacheBytes, cfg.PrivateWays, cfg.LineBytes),
		cmLevelOK: make([]bool, s.pl.K),
		emb:       make([]graph.VID, s.pl.K),
		levels:    make([][]graph.VID, s.pl.K),
		counts:    make([]int64, len(s.pl.Patterns)),
	}
	for i := range p.levels {
		p.levels[i] = make([]graph.VID, 0, s.g.MaxDegree())
	}
	switch {
	case cfg.CMapUnlimited:
		p.cm = cmap.NewVector(s.g.NumVertices())
	case cfg.CMapBytes > 0:
		p.cm = cmap.NewHashMapBytes(cfg.CMapBytes, cfg.CMapBanks)
	}
	return p
}

// tick charges n busy cycles of algorithmic work (the Compute bucket).
func (p *pe) tick(n int64) {
	p.clock += n
	p.busy += n
	p.bkt.Compute += n
}

// tickCMap charges n busy cycles of c-map scratchpad activity.
func (p *pe) tickCMap(n int64) {
	p.clock += n
	p.busy += n
	p.bkt.CMapProbe += n
}

// tickL1 charges n busy cycles of private-cache access latency.
func (p *pe) tickL1(n int64) {
	p.clock += n
	p.busy += n
	p.bkt.L1Stall += n
}

// tickSched charges n busy cycles of scheduler hand-off.
func (p *pe) tickSched(n int64) {
	p.clock += n
	p.busy += n
	p.bkt.DispatchWait += n
}

// stream walks [addr, addr+bytes) through the private cache a line at a time; a
// miss goes to the shared side and stalls the PE until the line returns (simple
// in-order blocking PE, matching the FSM design) — an evicted frontier list was
// "written to the shared cache" (§IV). scratch is a frontier-list write: the tag
// is maintained, but a miss costs only the L1 latency, the line being PE-local.
func (p *pe) stream(addr uint64, bytes int64, scratch bool) {
	if bytes <= 0 {
		return
	}
	shift := p.l1.lineShift
	first := addr >> shift
	last := (addr + uint64(bytes) - 1) >> shift
	for l := first; l <= last; l++ {
		if p.l1.access(l << shift) {
			p.l1Hits++
			p.tickL1(int64(p.sim.cfg.L1Latency))
			continue
		}
		p.l1Misses++
		if scratch {
			p.tickL1(int64(p.sim.cfg.L1Latency))
		} else {
			p.memLine(l << shift)
		}
	}
}

// readAdjPrefix fetches vertex v's degree bounds (Row) and streams elements
// [lo, hi) of its neighbor list, cut to the degree — a hub slice pays for just
// its own, [0, math.MaxInt) is the whole list — below bound; it returns them.
func (p *pe) readAdjPrefix(v graph.VID, lo, hi int, bound graph.VID) []graph.VID {
	am := p.sim.am
	p.stream(am.rowAddr(v), 16, false) // Row[v], Row[v+1]
	adj := p.sim.g.Adj(v)
	lo, hi = min(lo, len(adj)), min(hi, len(adj))
	prefix := setops.Bounded(adj[lo:hi], bound)
	// The hardware streams elements until the bound is exceeded: one extra
	// element read detects the bound.
	read := len(prefix)
	if read < hi-lo {
		read++
	}
	p.stream(am.colAddr(p.sim.g.AdjStart(v)+int64(lo)), int64(read)*4, false)
	return prefix
}

// runTask executes the search subtree rooted at the task's start vertex
// (restricted to its level-1 adjacency slice, when slicing is enabled),
// mirroring core.worker.runTask.
func (p *pe) runTask(t sched.Task) {
	start := p.clock
	p.tasks++
	p.tickSched(int64(p.sim.cfg.SchedLatency))
	root := p.sim.pl.Root
	p.emb[0] = t.V0
	p.sliceLo, p.sliceHi = t.Lo, t.Hi
	p.extends++
	p.tick(1) // push onto ancestor stack
	inserted := p.cmapInsert(&root.Op, 0, t.V0)
	for _, c := range root.Children {
		p.walk(c, 1)
	}
	if inserted {
		p.cmapRemove(&root.Op, 0, t.V0)
	}
	if tr := p.sim.cfg.Trace; tr.Enabled() {
		// PE state transition span: Working from task acceptance through the
		// last backtrack (timestamps are PE cycles; tracing charges none).
		tr.EmitAt(obs.CatSimPE, "task", p.id, start, p.clock-start,
			obs.Arg{Key: "v0", Val: int64(t.V0)})
	}
}

func (p *pe) walk(n *plan.Node, depth int) {
	cands := p.candidates(&n.Op, depth)
	if n.IsLeaf() {
		// Reducer: one counter bump; candidates were already charged.
		p.counts[n.PatternIdx] += int64(len(cands))
		p.tick(1)
		return
	}
	for _, v := range cands {
		p.emb[depth] = v
		p.extends++
		p.tick(2) // FSM: push + state transition to Extending
		inserted := p.cmapInsert(&n.Op, depth, v)
		for _, c := range n.Children {
			p.walk(c, depth+1)
		}
		if inserted {
			p.cmapRemove(&n.Op, depth, v)
		}
		p.tick(1) // backtrack pop
	}
}

func (p *pe) cmapBoundVal(op *plan.VertexOp) graph.VID {
	if op.CMapBound == plan.NoLevel {
		return cmap.NoBound
	}
	return p.emb[op.CMapBound]
}

// cmapInsert bulk-inserts the new vertex's neighbor list (§VI): the list is
// streamed from the private cache and each surviving entry costs one map
// write (plus extra probe groups).
func (p *pe) cmapInsert(op *plan.VertexOp, depth int, v graph.VID) bool {
	if p.cm == nil || !op.InsertCMap {
		return false
	}
	// One bound search serves the insert and the stream: the map gets the
	// bounded prefix with no bound of its own.
	prefix := setops.Bounded(p.sim.g.Adj(v), p.cmapBoundVal(op))
	before := p.cm.Stats()
	ok := p.cm.TryInsertLevel(prefix, depth, cmap.NoBound)
	p.cmLevelOK[depth] = ok
	after := p.cm.Stats()
	if ok {
		// Stream the (bounded) neighbor list; degree was known from Row.
		p.stream(p.sim.am.colAddr(p.sim.g.AdjStart(v)), int64(len(prefix))*4, false)
		p.chargeCMap(before, after)
	} else {
		p.tickCMap(1) // occupancy estimate rejected the insertion
	}
	return ok
}

func (p *pe) cmapRemove(op *plan.VertexOp, depth int, v graph.VID) {
	bound := p.cmapBoundVal(op)
	before := p.cm.Stats()
	p.cm.RemoveLevel(p.sim.g.Adj(v), depth, bound)
	p.cmLevelOK[depth] = false
	after := p.cm.Stats()
	// The list is still resident in the private cache on the common path;
	// charge the map-side work.
	p.chargeCMap(before, after)
}

// chargeCMap converts c-map activity deltas into cycles: one cycle per
// access plus one per extra probe group beyond the first (§VI-A: "most
// accesses take only a single cycle").
func (p *pe) chargeCMap(before, after cmap.Stats) {
	accesses := (after.Inserts - before.Inserts) + (after.Removes - before.Removes) + (after.Lookups - before.Lookups)
	probes := after.Probes - before.Probes
	extra := probes - accesses
	if extra < 0 {
		extra = 0
	}
	p.tickCMap(accesses + extra)
}

// bound mirrors core.worker.bound.
func (p *pe) bound(op *plan.VertexOp) graph.VID {
	b := setops.NoBound
	for _, idx := range op.UpperBounds {
		if v := p.emb[idx]; v < b {
			b = v
		}
	}
	if len(op.UpperBounds) > 0 {
		p.tick(1) // bound comparators operate in parallel
	}
	return b
}

// candidates mirrors core.worker.materialize with cycle charging.
func (p *pe) candidates(op *plan.VertexOp, depth int) []graph.VID {
	bound := p.bound(op)

	var base []graph.VID
	var intersect, difference []int
	if op.FrontierBase != plan.NoLevel {
		full := p.levels[op.FrontierBase]
		base = setops.Bounded(full, bound)
		intersect, difference = op.IntersectWith, op.DifferenceWith
		// Frontier-list table lookup + stream the memoized list from the
		// private cache (spillable to L2).
		p.tick(1)
		p.stream(frontierAddr(p.id, op.FrontierBase, 0), int64(len(base))*4, false)
	} else {
		lo, hi := 0, math.MaxInt
		if depth == 1 && p.sliceHi >= 0 {
			// Task slicing: this task covers only elements [sliceLo, sliceHi)
			// of the start vertex's adjacency; stream (and pay for) just those.
			lo, hi = p.sliceLo, p.sliceHi
		}
		base = p.readAdjPrefix(p.emb[op.Extender], lo, hi, bound)
		intersect, difference = op.Connected, op.Disconnected
	}

	out := p.levels[depth][:0]
	if p.cmapCovers(intersect, difference) {
		out = p.filterViaCMap(out, base, op, intersect, difference)
	} else {
		out = p.filterViaMerge(out, base, op, intersect, difference, bound)
	}
	p.levels[depth] = out

	if op.MemoizeFrontier {
		// Write the qualified list into the frontier region and update the
		// frontier-list table entry.
		p.stream(frontierAddr(p.id, depth, 0), int64(len(out))*4, true)
		p.tick(1)
	}
	return out
}

func (p *pe) cmapCovers(intersect, difference []int) bool {
	if p.cm == nil || (len(intersect) == 0 && len(difference) == 0) {
		return false
	}
	for _, ls := range [2][]int{intersect, difference} {
		for _, j := range ls {
			if !p.cmLevelOK[j] {
				return false
			}
		}
	}
	return true
}

// filterViaCMap prunes each streamed candidate with a c-map query: one cycle
// per element plus extra probe groups, all in the pruner. The whole list is
// one Filter call; distinctness then runs over its survivors in place.
func (p *pe) filterViaCMap(out, base []graph.VID, op *plan.VertexOp, intersect, difference []int) []graph.VID {
	var need, avoid cmap.Bits
	for _, j := range intersect {
		need |= 1 << uint(j)
	}
	for _, j := range difference {
		avoid |= 1 << uint(j)
	}
	out, cycles := p.cm.Filter(out, base, need, avoid)
	p.tickCMap(cycles)
	kept := out[:0]
	for _, v := range out {
		if p.distinct(v, op) {
			kept = append(kept, v)
		}
	}
	return kept
}

// filterViaMerge runs the SIU/SDU path (Fig 9): both operand lists stream
// from memory and the merge advances one iteration per cycle.
func (p *pe) filterViaMerge(out, base []graph.VID, op *plan.VertexOp, intersect, difference []int, bound graph.VID) []graph.VID {
	cur := base
	useA := true
	scalar := int64(p.sim.cfg.ScalarSetOpCycles)
	step := func(j int, diff bool) {
		opStart := p.clock
		// Stream the second operand (the first is cur, just produced).
		p.readAdjPrefix(p.emb[j], 0, math.MaxInt, bound)
		dst := p.mergeB[:0]
		if useA {
			dst = p.mergeA[:0]
		}
		var iters int64
		if diff {
			dst, iters = setops.DifferenceCost(dst, cur, p.sim.g.Adj(p.emb[j]), bound)
			p.sduIters += iters
		} else {
			dst, iters = setops.IntersectCost(dst, cur, p.sim.g.Adj(p.emb[j]), bound)
			p.siuIters += iters
		}
		p.tick(iters * (1 + scalar))
		if tr := p.sim.cfg.Trace; tr.Enabled() {
			name := "siu"
			if diff {
				name = "sdu"
			}
			// Span covers operand streaming plus the merge loop.
			tr.EmitAt(obs.CatKernel, name, p.id, opStart, p.clock-opStart,
				obs.Arg{Key: "iters", Val: iters})
		}
		if useA {
			p.mergeA = dst
		} else {
			p.mergeB = dst
		}
		cur = dst
		useA = !useA
	}
	for _, j := range intersect {
		step(j, false)
	}
	for _, j := range difference {
		step(j, true)
	}
	// Emit + distinctness pass; with no set operation, pure bound/distinctness
	// filtering still inspects each element.
	p.tick(int64(len(cur)))
	for _, v := range cur {
		if p.distinct(v, op) {
			out = append(out, v)
		}
	}
	return out
}

func (p *pe) distinct(v graph.VID, op *plan.VertexOp) bool {
	for _, j := range op.NotEqual {
		if p.emb[j] == v {
			return false
		}
	}
	return true
}
