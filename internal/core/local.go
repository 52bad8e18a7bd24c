package core

// Local rows (DESIGN.md decision 21), the runtime half; which nodes are local
// and what the universe and the rows may leave out is static (prog.go,
// localNodes). A task whose universe u = adj(v0) fits the cap renumbers it in a
// position map and matches every local node by word-AND over bit rows, row i
// being adj(u[i]) ∩ u, built on first read and never outliving the task; every
// other task and node runs the c-map walk. Map writes and lookups, row-build
// probes and row words read are all charged to Stats.BitmapProbes.

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/setops"
)

type localState struct {
	on    bool        // the current task runs locally
	u     []graph.VID // its universe, in ID order
	at    []uint16    // at[x] = 1 + position of x in u, 0 elsewhere; all-zero between tasks
	words int         // ⌈len(u)/64⌉, the length of a row and of a candidate set
	rows  []uint64    // row i at [i*words, (i+1)*words), built iff stamp[i] == epoch
	stamp []uint32
	epoch uint32
	cut   int      // how many of u lie below v0: the position a bound by level 0 is
	sets  []uint64 // level l's candidate set at [l*localWords, l*localWords+words); level 0's: all ones
	idx   []uint16 // localList's positions: idx[l*localCap+i] for the i-th vertex of level l's list
}

// localTask runs the task on local rows if emb[0]'s universe is not empty and
// fits the cap, and clears exactly the positions it wrote.
func (w *worker) localTask() bool {
	l, p, v0 := &w.loc, w.prog, w.emb[0]
	u, cut := w.g.Adj(v0), 0
	for cut < len(u) && u[cut] < v0 {
		cut++
	}
	if p.lbelow {
		u = u[:cut]
	}
	if len(u) == 0 || len(u) > p.lcap {
		return false
	}
	if l.at == nil {
		l.at = make([]uint16, w.g.NumVertices())
		l.sets, l.idx = make([]uint64, p.pl.K*localWords), make([]uint16, p.pl.K*localCap)
		for i := range l.sets[:localWords] {
			l.sets[i] = ^uint64(0) // level 0's set: the universe itself
		}
	}
	l.on, l.u, l.words, l.cut = true, u, (len(u)+63)>>6, cut
	if len(u) > len(l.stamp) {
		l.stamp, l.rows = make([]uint32, len(u)), make([]uint64, len(u)*l.words)
	}
	l.epoch++
	for i, x := range u {
		l.at[x] = uint16(i + 1)
	}
	w.descend(p.root)
	for _, x := range u {
		l.at[x] = 0
	}
	w.stats.BitmapProbes += 2 * int64(len(u))
	l.on = false
	return true
}

// localAt is the position of emb[l] in the universe, for local node n: level
// 1's is its loop index — it always iterates the universe's own prefix, from
// sliceLo (0 for a whole vertex) —, a local level's was kept by localList, any
// other's is a lookup.
func (w *worker) localAt(n *node, l int) int {
	switch {
	case l == 0:
		return w.loc.cut
	case l == 1:
		return w.pos[1] + w.sliceLo
	case n.local.look>>l&1 == 0:
		return int(w.loc.idx[l*localCap+w.pos[l]])
	}
	w.stats.BitmapProbes++
	return int(w.loc.at[w.emb[l]]) - 1
}

// localBuild fills row i, below its own vertex when every reader stays there.
// Like setops.MaskScan it stores every probed position and advances only past a
// hit, so no branch depends on the data.
func (w *worker) localBuild(i int) {
	l := &w.loc
	l.stamp[i] = l.epoch
	row := l.rows[i*l.words:][:l.words]
	clear(row)
	limit := setops.NoBound
	if w.prog.ltri {
		limit = l.u[i]
	}
	adj := w.g.Adj(l.u[i])
	hits, n, k := w.scratch[0][:len(adj)], 0, 0
	for ; k < len(adj) && adj[k] < limit; k++ {
		hits[n] = graph.VID(l.at[adj[k]])
		if hits[n] != 0 {
			n++
		}
	}
	for _, p := range hits[:n] {
		row[(p-1)>>6] |= 1 << ((p - 1) & 63)
	}
	w.stats.BitmapProbes += int64(k)
	w.stats.LocalRows++
}

// localSet computes local node n's candidates into its level's set and counts
// them: the base level's set, AND / AND-NOT the rows of lops, minus the NotEqual
// ancestors the position map finds, cut at the least bounding position.
func (w *worker) localSet(n *node) ([]uint64, int64) {
	l := &w.loc
	end := len(l.u)
	for _, b := range n.op.UpperBounds {
		end = min(end, w.localAt(n, b))
	}
	nw := (end + 63) >> 6
	out := l.sets[n.depth*localWords:][:l.words]
	copy(out[:nw], l.sets[n.local.base*localWords:])
	for _, o := range n.local.ops {
		i := w.localAt(n, o.level)
		if l.stamp[i] != l.epoch {
			w.localBuild(i)
		}
		setops.WordsAnd(out[:nw], l.rows[i*l.words:], o.diff)
	}
	for _, j := range n.op.NotEqual {
		if p := l.at[w.emb[j]]; p != 0 {
			out[(p-1)>>6] &^= 1 << ((p - 1) & 63)
		}
	}
	w.stats.BitmapProbes += int64(nw*max(len(n.local.ops), 1) + len(n.op.NotEqual))
	return out, setops.WordsTrim(out, end)
}

// localList is localSet for a node whose candidates are extended or visited:
// the set bits as vertices, ascending, in the level's buffer like any frontier.
func (w *worker) localList(n *node) []graph.VID {
	set, _ := w.localSet(n)
	list := w.levels[n.depth][:0]
	for k, word := range set {
		for ; word != 0; word &= word - 1 {
			j := k<<6 + bits.TrailingZeros64(word)
			w.loc.idx[n.depth*localCap+len(list)] = uint16(j)
			list = append(list, w.loc.u[j])
		}
	}
	w.levels[n.depth] = list
	return list
}

// localSweep is walk in a local task for a node of the local or the pair kind
// (DESIGN.md decision 30): one loop over n's set, a bit's index the candidate's
// universe position — no list, idx or descend. At depth 1 a pair's set is the walk's
// list: the task's hub slice of the universe, below v0 where v0 bounds it (one search);
// per bit j the child's set is its base set AND row j, below j where n bounds it.
func (w *worker) localSweep(n *node) {
	l, m, set := &w.loc, int64(0), w.loc.sets[localWords:][:w.loc.words]
	if n.local.on {
		set, m = w.localSet(n)
	} else {
		hi := len(l.u)
		if len(n.op.UpperBounds) > 0 {
			hi = l.cut
			w.stats.Searches++
		}
		if w.sliceHi >= 0 {
			hi = min(hi, w.sliceHi)
		}
		clear(set)
		for j := min(w.sliceLo, hi); j < hi; j, m = j+1, m+1 {
			set[j>>6] |= 1 << (j & 63)
		}
	}
	w.stats.Candidates += m
	if n.sweep == sweepLocal {
		w.localLeaves(n, set)
		return
	}
	c := n.children[0]
	out, base, bounded := l.sets[c.depth*localWords:][:l.words], l.sets[c.local.base*localWords:], len(c.op.UpperBounds) > 0
	for x, word := range set {
		for ; word != 0 && !w.cancelled(); word &= word - 1 {
			j, end := x<<6+bits.TrailingZeros64(word), len(l.u)
			if bounded {
				end = j
			}
			if l.stamp[j] != l.epoch {
				w.localBuild(j)
			}
			row := l.rows[j*l.words:]
			for i := range out[:(end+63)>>6] {
				out[i] = base[i] & row[i]
			}
			w.stats.Candidates += setops.WordsTrim(out, end)
			w.stats.BitmapProbes += int64(end+63) >> 6
			w.stats.Extensions++
			w.localLeaves(c, out)
		}
	}
}

// localLeaves counts n's only child c, a local leaf, over the bits of set, n's
// candidates — per bit i set AND row i, below i where n bounds c —, charged once.
func (w *worker) localLeaves(n *node, set []uint64) {
	c, l := n.children[0], &w.loc
	bounded, k, cnt, probes := len(c.op.UpperBounds) > 0, int64(0), int64(0), int64(0)
	for x, word := range set {
		for ; word != 0 && !w.cancelled(); word &= word - 1 {
			i, end := x<<6+bits.TrailingZeros64(word), len(l.u)
			if bounded {
				end = i
			}
			if l.stamp[i] != l.epoch {
				w.localBuild(i)
			}
			cnt += setops.WordsAndCount(set, l.rows[i*l.words:], end)
			k, probes = k+1, probes+int64(end+63)>>6
		}
	}
	w.stats.Extensions += k
	w.stats.LeafCountsSkippedMaterialize += k
	w.stats.BitmapProbes += probes
	w.stats.Candidates += cnt
	w.counts[c.patternIdx] += cnt
}
