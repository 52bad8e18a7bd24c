package core

// Auxiliary-graph runtime (Options.AuxGraph; DESIGN.md decision 14). The
// compiler marks, per plan, which deep ops re-intersect against adjacency
// rows whose pruned form depends only on shallow ancestors (plan.AuxSpecs,
// computed by assignAuxDirectives). This file is the engine half: when a DFS
// enters the activation level of a spec, the worker opens an "activation
// scope"; the first descendant lookup of each extender value x materializes
// the pruned row
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
// epoch, reset the arena length. Nothing here is charged by the
// simulator, which never reads the aux directives; mined counts are invariant
// under AuxMode (cross-mode tests), only wall-clock and the Aux* Stats move.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/setops"
)

// AuxMode selects the auxiliary-graph layer (Options.AuxGraph).
type AuxMode int

const (
	// AuxOff (the zero value) ignores the plan's aux directives entirely —
	// the configuration of the paper-figure runners (PaperBaseline).
	AuxOff AuxMode = iota
	// AuxAuto (the CLI default) honors directives when the per-activation
	// cost model predicts enough reuse: Uses × avgdeg^Gap ≥ 2, Gap less a level
	// that is a factor, and a nonzero fold operand. Skipped activations count
	// as AuxSkippedCostModel.
	AuxAuto
	// AuxOn honors every directive unconditionally: the leg tests use to
	// force row builds independent of the cost gate.
	AuxOn
)

func (m AuxMode) String() string {
	switch m {
	case AuxOff:
		return "off"
	case AuxAuto:
		return "auto"
	case AuxOn:
		return "on"
	}
	return fmt.Sprintf("AuxMode(%d)", int(m))
}

// ParseAuxMode resolves a CLI/config spelling of an aux-graph mode.
func ParseAuxMode(s string) (AuxMode, error) {
	switch s {
	case "off":
		return AuxOff, nil
	case "auto", "":
		return AuxAuto, nil
	case "on":
		return AuxOn, nil
	}
	return 0, fmt.Errorf("core: unknown aux-graph mode %q (want off, auto, or on)", s)
}

// auxState is the per-worker runtime of one plan.AuxSpec. The arrays are
// allocated once in newWorker (MaxDegree-sized, like the chain scratch) and
// live for the worker's lifetime; per-activation reset is the epoch bump plus
// an arena length reset, never an allocation.
type auxState struct {
	universe  []graph.VID // adj(emb[Universe]) view of the live activation
	active    bool        // inside an activation scope
	build     bool        // activation passed the cost gate
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
// the program carries no aux layer.
func newAuxStates(g graph.Store, p *program) []auxState {
	if p.aux == nil {
		return nil
	}
	states := make([]auxState, len(p.aux))
	maxd := g.MaxDegree()
	for i := range states {
		states[i].slots = make([]auxSlot, maxd)
	}
	return states
}

// auxActivate opens the activation scope of every spec built at n: the
// universe and fold ancestors are fixed from here until auxRelease, so rows
// stamped under the new epoch stay valid for the whole subtree. Under
// AuxAuto an activation whose fold operand is empty is skipped — the rows
// would be plain copies (difference against nothing) or trivially empty, and
// the normal per-step path handles both for free.
func (w *worker) auxActivate(n *node) {
	for _, i := range n.op.BuildAux {
		st := &w.aux[i]
		a := &w.prog.aux[i]
		st.epoch++
		st.finger = 0
		w.auxLive -= st.liveBytes
		st.liveBytes = 0
		st.arena = st.arena[:0]
		st.active = true
		st.build = a.gate
		if st.build && w.o.AuxGraph == AuxAuto {
			operand := 0
			for _, o := range a.ops {
				operand += len(w.g.Adj(w.emb[o.level]))
			}
			if operand == 0 {
				st.build = false
			}
		}
		if !st.build {
			w.stats.AuxSkippedCostModel++
			continue
		}
		st.universe = w.g.Adj(w.emb[a.spec.Universe])
	}
}

// auxRelease closes the activation scopes opened by auxActivate. Paired with
// it on every path — including cancellation unwinds — so live-byte accounting
// returns to zero between tasks and nothing leaks across them.
func (w *worker) auxRelease(n *node) {
	for _, i := range n.op.BuildAux {
		st := &w.aux[i]
		st.active = false
		st.build = false
		w.auxLive -= st.liveBytes
		st.liveBytes = 0
		st.arena = st.arena[:0]
		st.universe = nil
	}
}

// auxRow resolves the materialized pruned row for the consumer's extender
// value, building it on first lookup within the live activation. ok=false
// falls back to the plain adjacency path: spec inactive (hand-built plan or
// cost-gated activation) or — defensively — a key neither finger nor search
// finds, i.e. one outside the universe. The key's universe position is stepped
// to from the previous lookup's: the extender's level iterates a sorted sub-list
// of the universe, so keys arrive in ascending runs (a smaller key restarts at
// 0); only a longer gap is searched.
func (w *worker) auxRow(n *node) ([]graph.VID, bool) {
	st := &w.aux[n.srcIdx]
	if !st.active || !st.build {
		return nil, false
	}
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
