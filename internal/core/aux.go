package core

// Auxiliary-graph runtime (DESIGN.md decision 14). The compiler marks, per
// plan, which deep ops re-intersect against adjacency rows whose pruned form
// depends only on shallow ancestors (plan.AuxSpecs, computed by
// assignAuxDirectives), and under KernelAuto lowering keeps the specs that
// still pay once counting has had its turn (prog.go, auxNodes). This file is
// the engine half: when a DFS enters the activation level of a kept spec, the
// worker opens an "activation scope"; the first descendant lookup of each
// extender value x materializes the pruned row
//
//	aux[x] = adj(x) ∩ adj(emb[j]) … ∖ adj(emb[j]) …   (bounded by emb[RowBound])
//
// into a per-worker arena through the same policy-dispatched kernels as any
// other set operation, and every later lookup of x in the subtree reuses it —
// the GraphMini insight that deep DFS loops repeat shallow intersections once
// per intermediate embedding.
//
// Rows are keyed by x's position in the universe row adj(emb[Universe])
// (always ⊇ the extender's candidate set, see plan/aux.go), so the slot array
// is MaxDegree-sized and pooled in the worker — activation is O(1): bump an
// epoch. Nothing here is charged by the simulator, which never reads the aux
// directives; mined counts are the merge-only engine's (which builds no row),
// only wall-clock and the Aux* Stats move.

import (
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/setops"
)

// AuxMode was the type of Options.AuxGraph. Retired with it (engine.go), as are
// its two values: only benchmark/mining.go still names them.
type AuxMode int

const (
	AuxOff  AuxMode = iota // Retired.
	AuxAuto                // Retired.
)

// auxState is the per-worker runtime of one plan.AuxSpec. The arrays are
// allocated once in newWorker (MaxDegree-sized, like the chain scratch) and
// live for the worker's lifetime; per-activation reset is the epoch bump plus
// an arena length reset, never an allocation.
type auxState struct {
	universe  []graph.VID // adj(emb[Universe]) view of the live activation; nil outside one, and in one that builds no row
	epoch     uint64      // slots[pos].stamp==epoch ⇒ row for universe[pos] is live
	slots     []auxSlot
	finger    int         // universe position of the previous lookup
	arena     []graph.VID // append-only row storage, reset per activation
	liveBytes int64       // bytes of live rows (arena length × 4)
}

// auxSlot locates one row; stamp, offset and length share a 16-byte slot so a
// hit touches one cache line. off is an arena index (survives regrowth).
type auxSlot struct {
	stamp  uint64
	off, n int32
}

// fingerSteps is how far auxRow walks from its previous position before it searches.
const fingerSteps = 4

// newAuxStates builds the pooled per-spec runtime of one worker, or nil when
// the program kept no aux spec.
func newAuxStates(g graph.Store, p *program) []auxState {
	if p.aux == nil {
		return nil
	}
	states := make([]auxState, len(p.aux))
	maxd := g.MaxDegree()
	for i := range states {
		if p.aux[i].spec != nil {
			states[i].slots = make([]auxSlot, maxd)
		}
	}
	return states
}

// auxActivate opens the activation scope of every spec built at n: the
// universe and fold ancestors are fixed from here until auxRelease, so rows
// stamped under the new epoch stay valid for the whole subtree. An activation
// whose fold operand is empty builds nothing — the rows would be plain copies
// (difference against nothing) or trivially empty, and the normal per-step
// path handles both for free.
func (w *worker) auxActivate(n *node) {
	for _, i := range n.builds {
		st, a := &w.aux[i], &w.prog.aux[i]
		st.epoch++
		st.finger = 0
		operand := 0
		for _, o := range a.ops {
			operand += len(w.g.Adj(w.emb[o.level]))
		}
		if operand > 0 {
			st.universe = w.g.Adj(w.emb[a.spec.Universe])
		}
	}
}

// auxRelease closes the activation scopes opened by auxActivate. Paired with
// it on every path — including cancellation unwinds — so live-byte accounting
// returns to zero between tasks and nothing leaks across them.
func (w *worker) auxRelease(n *node) {
	for _, i := range n.builds {
		st := &w.aux[i]
		w.auxLive -= st.liveBytes
		st.liveBytes = 0
		st.arena = st.arena[:0]
		st.universe = nil
	}
}

// auxRow resolves the materialized pruned row for the consumer's extender
// value, building it on first lookup within the live activation. ok=false
// falls back to the plain adjacency path: an activation that builds no row (no
// universe) or — defensively — a key neither finger nor search finds, i.e. one
// outside the universe. The key's universe position is stepped
// to from the previous lookup's: the extender's level iterates a sorted sub-list
// of the universe, so keys arrive in ascending runs (a smaller key restarts at
// 0); only a longer gap is searched.
func (w *worker) auxRow(n *node) ([]graph.VID, bool) {
	st := &w.aux[n.srcIdx]
	x, u, pos := w.emb[n.op.Extender], st.universe, st.finger
	if pos >= len(u) || u[pos] > x {
		pos = 0
	}
	for end := pos + fingerSteps; pos < len(u) && u[pos] < x; pos++ {
		if pos == end {
			pos += max(w.index(u[pos:], x), 0)
			break
		}
	}
	if pos >= len(u) || u[pos] != x {
		return nil, false
	}
	st.finger = pos
	if s := st.slots[pos]; s.stamp == st.epoch {
		w.stats.AuxReused++
		return st.arena[s.off : s.off+s.n], true
	}
	return w.auxBuild(st, &w.prog.aux[n.srcIdx], x, pos), true
}

// auxBuild materializes aux[x] into the arena tail through the same chain and
// policy-dispatched kernels as the per-step path (Options.Kernel applies,
// kernel Stats counters charge normally) and stamps its position. The last
// fold operation writes straight into the arena: the scratch it would
// otherwise land in is clobbered by the consumer's residual operations.
func (w *worker) auxBuild(st *auxState, a *auxNode, x graph.VID, pos int) []graph.VID {
	bound := setops.NoBound
	if a.spec.RowBound != plan.NoLevel {
		bound = w.emb[a.spec.RowBound]
	}
	off := int32(len(st.arena))
	row, ops := w.bounded(w.g.Adj(x), bound), a.ops
	if a.scan != nil && w.scanPays(ops, len(row)) {
		ops = a.scan
	}
	cur, last := w.chain(row, ops, bound)
	st.arena, _ = w.setOp(st.arena, true, cur, last, bound)
	n := int32(len(st.arena)) - off
	st.slots[pos] = auxSlot{stamp: st.epoch, off: off, n: n}
	st.liveBytes += int64(n) * 4
	w.auxLive += int64(n) * 4
	if w.auxLive > w.stats.AuxBytesPeak {
		w.stats.AuxBytesPeak = w.auxLive
	}
	w.stats.AuxBuilt++
	return st.arena[off : off+n]
}
