package graph

// Precomputed hub-adjacency bitmaps: the software analog of the paper's c-map
// for the CPU engine. Set intersections in power-law graphs are dominated by
// a handful of very-high-degree hubs; holding each hub's neighbor list as a
// dense |V|-bit vector turns an intersection against that hub into one word
// probe per candidate — O(|small|) instead of O(|small| + deg(hub)) — the
// auxiliary-adjacency-structure idea of GraphMini (Liu et al. 2023).
//
// The index is built once per graph (lazily, at first engine construction
// after load/orient) and shared read-only by every worker; it never affects
// the simulator, whose SIU/SDU cycle model stays merge-based.

import (
	"sort"
	"sync"
)

// DefaultHubBitmaps is the top-K hub count an engine indexes when the caller
// does not choose one. At K=64 the index costs K·|V|/8 bytes — 32 kB per
// million-ish scaled vertices — for coverage of the vertices that dominate
// merge traffic.
const DefaultHubBitmaps = 64

// hubMinDegree is the smallest degree worth a bitmap: below it the merge
// loop is already short and the build cost would never amortize.
const hubMinDegree = 64

// HubIndex maps the top-K highest-degree vertices to dense adjacency
// bitmaps. Immutable once built; safe for concurrent readers.
type HubIndex struct {
	words int     // uint64 words per bitmap = ceil(|V|/64)
	slot  []int32 // per-vertex slot+1 into bits; 0 = not a hub
	bits  []uint64
	hubs  int
}

// Hubs returns the number of indexed hub vertices.
func (h *HubIndex) Hubs() int {
	if h == nil {
		return 0
	}
	return h.hubs
}

// Bitmap returns v's dense adjacency bitmap (indexed by neighbor ID), or nil
// when v is not an indexed hub.
func (h *HubIndex) Bitmap(v VID) []uint64 {
	if h == nil || int(v) >= len(h.slot) {
		return nil
	}
	s := h.slot[v]
	if s == 0 {
		return nil
	}
	off := int(s-1) * h.words
	return h.bits[off : off+h.words]
}

// buildHubIndex selects the (at most) topK vertices of degree ≥ hubMinDegree
// and densifies their neighbor lists. It only reads through the Store seam,
// so every backend (heap, mmap, sharded) shares one implementation.
func buildHubIndex(g Store, topK int) *HubIndex {
	n := g.NumVertices()
	h := &HubIndex{words: (n + 63) / 64, slot: make([]int32, n)}
	if topK <= 0 {
		return h
	}
	var cand []VID
	for v := 0; v < n; v++ {
		if g.Degree(VID(v)) >= hubMinDegree {
			cand = append(cand, VID(v))
		}
	}
	if len(cand) > topK {
		sort.Slice(cand, func(i, j int) bool {
			di, dj := g.Degree(cand[i]), g.Degree(cand[j])
			if di != dj {
				return di > dj
			}
			return cand[i] < cand[j]
		})
		cand = cand[:topK]
	}
	h.hubs = len(cand)
	h.bits = make([]uint64, len(cand)*h.words)
	for i, v := range cand {
		h.slot[v] = int32(i + 1)
		bm := h.bits[i*h.words : (i+1)*h.words]
		for _, w := range g.Adj(v) {
			bm[w>>6] |= 1 << (w & 63)
		}
	}
	return h
}

// hubCache is the lazily built, per-store hub-bitmap index slot. Every Store
// implementation embeds one so the index follows the store through caches and
// is shared by every engine constructed on it.
type hubCache struct {
	hubMu sync.Mutex
	hub   *HubIndex
}

// ensureHub builds (once) and returns the index over s; the first build wins
// regardless of later topK values.
func (c *hubCache) ensureHub(s Store, topK int) *HubIndex {
	if topK <= 0 {
		topK = DefaultHubBitmaps
	}
	c.hubMu.Lock()
	defer c.hubMu.Unlock()
	if c.hub == nil {
		c.hub = buildHubIndex(s, topK)
	}
	return c.hub
}

// EnsureHubIndex builds (once) and returns the graph's hub-bitmap index over
// the topK highest-degree vertices; topK ≤ 0 selects DefaultHubBitmaps. The
// first build wins — later calls return the existing index regardless of
// topK — so concurrent engines on one graph share a single index, and the
// build amortizes across runs exactly like the cached DAG orientation. Safe
// for concurrent use; callers should capture the returned pointer rather
// than re-resolving it on hot paths.
func (g *Graph) EnsureHubIndex(topK int) *HubIndex {
	return g.ensureHub(g, topK)
}
