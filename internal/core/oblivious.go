package core

// The pattern-oblivious baseline (§III): like Gramer [90] and the
// pattern-oblivious software systems (RStream, Fractal), it enumerates the
// full connected-subgraph search tree and applies isomorphism tests at the
// leaves, with no matching order and no symmetry order. We use the ESU
// (FANMOD) enumeration, which visits every connected vertex-induced
// k-subgraph exactly once, then classifies each leaf by canonical code.
//
// Besides serving as the Table II baseline, this engine is the test oracle
// for the pattern-aware engines.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// ObliviousResult maps canonical pattern codes to induced-subgraph counts.
type ObliviousResult struct {
	// CountsByCode maps pattern.CanonicalCode() to the number of connected
	// vertex-induced subgraphs with that shape.
	CountsByCode map[uint64]int64
	// Enumerated is the total number of connected induced k-subgraphs
	// visited — the search-space size the pattern-aware plans avoid.
	Enumerated int64
	// IsoTests is the number of isomorphism classifications performed.
	IsoTests int64
}

// CountInduced returns the induced count for p (zero if none found).
func (r ObliviousResult) CountInduced(p *pattern.Pattern) int64 {
	return r.CountsByCode[p.CanonicalCode()]
}

// MineOblivious enumerates every connected vertex-induced k-subgraph of g
// (each exactly once, via ESU) and classifies it. threads ≤ 0 uses
// GOMAXPROCS.
func MineOblivious(g *graph.Graph, k int, threads int) ObliviousResult {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if threads > n && n > 0 {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	partial := make([]ObliviousResult, threads)
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			w := &esuWorker{
				g:     g,
				k:     k,
				codes: map[uint64]int64{},
				cache: map[string]uint64{},
			}
			for {
				v := next.Add(1) - 1
				if v >= int64(n) {
					break
				}
				w.root(graph.VID(v))
			}
			partial[t] = ObliviousResult{CountsByCode: w.codes, Enumerated: w.enumerated, IsoTests: w.isoTests}
		}(t)
	}
	wg.Wait()
	total := ObliviousResult{CountsByCode: map[uint64]int64{}}
	for _, p := range partial {
		for c, n := range p.CountsByCode {
			total.CountsByCode[c] += n
		}
		total.Enumerated += p.Enumerated
		total.IsoTests += p.IsoTests
	}
	return total
}

type esuWorker struct {
	g          *graph.Graph
	k          int
	sub        []graph.VID
	codes      map[uint64]int64
	cache      map[string]uint64 // adjacency-signature → canonical code
	enumerated int64
	isoTests   int64
}

// root starts the ESU enumeration anchored at v: only vertices with larger
// IDs may join the extension, which is what guarantees uniqueness.
func (w *esuWorker) root(v graph.VID) {
	w.sub = w.sub[:0]
	w.sub = append(w.sub, v)
	var ext []graph.VID
	for _, u := range w.g.Adj(v) {
		if u > v {
			ext = append(ext, u)
		}
	}
	w.extend(v, ext)
}

// extend implements the ESU recursion: pick each extension vertex in turn,
// build the next extension set from exclusive neighbors (> anchor, not
// adjacent to the current subgraph except through the new vertex).
func (w *esuWorker) extend(anchor graph.VID, ext []graph.VID) {
	if len(w.sub) == w.k {
		w.enumerated++
		w.classify()
		return
	}
	for i := 0; i < len(ext); i++ {
		u := ext[i]
		// Next extension: remaining ext plus exclusive new neighbors of u.
		next := make([]graph.VID, 0, len(ext)-i-1+w.g.Degree(u))
		next = append(next, ext[i+1:]...)
		for _, x := range w.g.Adj(u) {
			if x <= anchor || x == u {
				continue
			}
			if w.inSub(x) || w.adjacentToSub(x) {
				continue
			}
			next = append(next, x)
		}
		w.sub = append(w.sub, u)
		w.extend(anchor, next)
		w.sub = w.sub[:len(w.sub)-1]
	}
}

func (w *esuWorker) inSub(x graph.VID) bool {
	for _, s := range w.sub {
		if s == x {
			return true
		}
	}
	return false
}

// adjacentToSub reports whether x neighbors any current subgraph vertex —
// such vertices are already in ext (or were skipped) and must not be
// re-added, or ESU would enumerate duplicates.
func (w *esuWorker) adjacentToSub(x graph.VID) bool {
	for _, s := range w.sub {
		if w.g.Connected(s, x) {
			return true
		}
	}
	return false
}

// classify performs the leaf isomorphism test: build the induced pattern and
// bucket by canonical code. The signature cache amortizes canonicalization
// across identical local shapes.
func (w *esuWorker) classify() {
	k := len(w.sub)
	var sig [pattern.MaxVertices]uint32
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if w.g.Connected(w.sub[i], w.sub[j]) {
				sig[i] |= 1 << uint(j)
				sig[j] |= 1 << uint(i)
			}
		}
	}
	key := string(sigBytes(sig[:k]))
	code, ok := w.cache[key]
	if !ok {
		p := pattern.New(k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if sig[i]&(1<<uint(j)) != 0 {
					p.AddEdge(i, j)
				}
			}
		}
		w.isoTests++
		code = p.CanonicalCode()
		w.cache[key] = code
	}
	w.codes[code]++
}

func sigBytes(sig []uint32) []byte {
	b := make([]byte, 0, len(sig)*4)
	for _, s := range sig {
		b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return b
}
