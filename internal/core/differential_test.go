package core

// The differential suite (DESIGN decision 10; ROADMAP item 3): one seeded case
// generator and one oracle in place of hand-enumerated invariance grids. A case
// is a plan — every connected pattern of 2–6 vertices, edge- or vertex-induced,
// with symmetry breaking or divided by |Aut|; the oriented cliques; the motif
// censuses; the merged trees; seeded batches of relabelled same-size patterns
// merged into one tree. A key is a case on a graph; the key draws the option
// vectors, and every run of every vector is held to the one oracle (check).
// A failing key prints as a pin; pins run first, seed the fuzzer and carry the
// mutants.

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sim"
)

// vec is an option vector: every axis a run may vary that no count depends on.
type vec struct {
	merge   bool // Kernel: KernelMergeOnly, else KernelAuto
	threads int
	slice   int  // SliceElems
	store   int  // storeAxis
	capped  bool // the local-row cap lowered to 4 on e.prog
	unswept bool // every sweep kind cleared on e.prog, the Result held to the swept run's
	trace   bool
	shape   int // shapeAxis
	perm    int // the labelling of the case graph: permAsGiven, permDegree, or a random permutation's seed
}

var (
	threadAxis = [...]int{1, 3, 16}
	sliceAxis  = [...]int{SliceOff, 0, 1, 4, 32}
	storeAxis  = [...]string{"heap", "mmap", "sharded"}
	shapeAxis  = [...]string{"Mine", "List", "MineContext"}
)

const (
	onHeap = iota
	onMapped
	onSharded
)

// The vertex-permutation axis: the case graph as given, in (degree, ID) order, or
// relabelled by a random permutation (every other value, its seed).
const (
	permAsGiven = iota
	permDegree
)

const (
	shapeMine = iota
	shapeList
	shapeContext // MineContext with an OnTaskDone tally
)

// ref are the two vectors every key runs first: merge-only and auto on one thread,
// whole vertices, so that each key has a pair to compare Extensions on.
var ref = [2]vec{{merge: true, threads: 1, slice: SliceOff}, {threads: 1, slice: SliceOff}}

// decode spreads x over the axes.
func decode(x uint32) vec {
	perm := int(x >> 12 & 0xff)
	if perm%4 < 2 {
		perm %= 4
	}
	return vec{merge: x&1 != 0, threads: threadAxis[(x>>1)%3], slice: sliceAxis[(x>>3)%5],
		store: int((x >> 6) % 3), capped: x>>8&1 != 0, trace: x>>9&1 != 0, shape: int((x >> 10) % 3), unswept: x>>31 != 0, perm: perm}
}

func (v vec) String() string {
	kernel := KernelAuto
	if v.merge {
		kernel = KernelMergeOnly
	}
	s := fmt.Sprintf("%v/t%d/s%d/%s/%s", kernel, v.threads, v.slice, storeAxis[v.store], shapeAxis[v.shape])
	if v.capped {
		s += "/cap4"
	}
	if v.unswept {
		s += "/unswept"
	}
	if v.trace {
		s += "/trace"
	}
	switch v.perm {
	case permAsGiven:
	case permDegree:
		s += "/degree-ordered"
	default:
		s += fmt.Sprintf("/perm%d", v.perm)
	}
	return s
}

// gspec names a graph: a family and its size.
type gspec struct {
	family string
	n, m   int
	seed   uint64
}

var families = [...]string{"rmat", "er", "chung-lu", "clique", "star", "windmill", "kab"}

// sizes are each family's n and m for patterns of ≤ 4, 5 and 6 vertices: small
// enough that BruteCount takes milliseconds, with hubs past the widest slice.
var sizes = [3][len(families)][2]int{
	{{6, 220}, {40, 140}, {48, 160}, {12}, {40}, {20}, {5, 6}},
	{{5, 110}, {30, 90}, {36, 110}, {9}, {36}, {18}, {5, 6}},
	{{4, 40}, {14, 48}, {16, 44}, {8}, {20}, {8}, {4, 5}},
}

func sized(k, family int) [2]int { return sizes[min(max(k, 4), 6)-4][family] }

// drawGraph is the graph h draws for a case of k-vertex patterns.
func drawGraph(h uint64, k int) gspec {
	f := int(h % uint64(len(families)))
	sz := sized(k, f)
	return gspec{families[f], sz[0], sz[1], 1 + (h>>8)%3}
}

func (s gspec) build() *graph.Graph {
	switch s.family {
	case "rmat":
		return graph.RMAT(s.n, s.m, 0.57, 0.19, 0.19, s.seed)
	case "er":
		return graph.ErdosRenyi(s.n, s.m, s.seed)
	case "chung-lu":
		return graph.ChungLu(s.n, s.m, 2.3, s.seed)
	case "clique":
		return graph.Clique(s.n)
	case "star":
		return biclique(1, s.n)
	case "windmill": // n triangles sharing vertex 0: every list of common neighbours has one vertex
		var edges []graph.Edge
		for i := 1; i < 2*s.n; i += 2 {
			a, b := graph.VID(i), graph.VID(i+1)
			edges = append(edges, graph.Edge{U: 0, V: a}, graph.Edge{U: 0, V: b}, graph.Edge{U: a, V: b})
		}
		return graph.MustFromEdges(2*s.n+1, edges)
	case "kab":
		return biclique(s.n, s.m)
	}
	panic("unknown graph family " + s.family)
}

// key is one check: a case on a graph. fewer and bounded are contracts a pin holds
// on its own fixture only: auto extends fewer vertices than merge-only wherever it
// counted a level in closed form; auto's kernel work stays within merge-only's
// merge iterations.
type key struct {
	c              string
	g              gspec
	fewer, bounded bool
}

func (k key) String() string {
	return fmt.Sprintf("{c: %q, g: gspec{%q, %d, %d, %d}}", k.c, k.g.family, k.g.n, k.g.m, k.g.seed)
}

// pins are regression rows: keys that once failed, the fixtures of contracts that
// hold there only, and what the mutants must die on.
var pins = []key{
	{c: "diamond,edge", g: gspec{"chung-lu", 600, 4800, 9}, bounded: true}, // the kernel-cost bound's own fixture
	{c: "5-motif-14,edge", g: gspec{"clique", 9, 0, 0}, fewer: true},       // house: a factor, every candidate below it one of its list
	{c: "5-motif-14,edge", g: gspec{"windmill", 18, 0, 0}},                 // every weight 1 or 0
	{c: "4-cycle,edge", g: gspec{"kab", 5, 6, 0}, fewer: true},             // a far corner; every vertex of a side a twin
	{c: "5-motif-16,edge", g: gspec{"clique", 9, 0, 0}, fewer: true},       // a far corner less its NotEqual ancestors
	{c: "6-motif-74,edge", g: gspec{"clique", 8, 0, 0}, fewer: true},       // three twins
	{c: "4-path,edge", g: gspec{"er", 40, 140, 9}},                         // a product with a B
	{c: "tailed-triangle,edge", g: gspec{"windmill", 18, 0, 0}},            // half-sums of m·A − m; the hub's 36 arcs cut into slices
	{c: "diamond,edge", g: gspec{"er", 40, 140, 9}},                        // C(m, 2) swept over v1's list
	{c: "5-motif-3,edge", g: gspec{"er", 30, 90, 9}},                       // 5-path: a probed suspect
	{c: "4-star,edge", g: gspec{"star", 40, 0, 0}},                         // C(m, 3) at depth 1, hub slices with heads
	{c: "burst", g: gspec{"rmat", 6, 220, 3}},                              // the burst catalog's merged tree
	{c: "5-motifs,induced", g: gspec{"rmat", 5, 110, 3}},                   // the census: vertex-induced chains on the c-map
	{c: "3-clique,oriented", g: gspec{"rmat", 6, 220, 3}},                  // TC: a swept c-map scan
	{c: "4-clique,oriented", g: gspec{"rmat", 6, 220, 3}},                  // 4-CL: a swept local-row AND
	{c: "4-clique,edge", g: gspec{"rmat", 6, 220, 3}},                      // a swept local-row AND below each candidate's position
}

func hash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// vectors are the option vectors k runs: the two references, then four it draws —
// and, where k's case lowers a pair loop or a half-sum, four threads on 32-element
// hub slices, so that its depth-1 loops and half-sums run on slices of the universe
// or row (sliceLo > 0).
func vectors(k key) []vec {
	r := rand.New(rand.NewSource(int64(hash(k.String()))))
	vs := slices.Clone(ref[:])
	for range 4 {
		vs = append(vs, decode(r.Uint32()))
	}
	if lowersTo(func(n *node) bool { return n.sweep == sweepPair || n.half != 0 })(*caseNamed(k.c)) {
		vs = append(vs, vec{threads: 4, slice: 32})
	}
	return vs
}

// dcase is a plan of the sweep. Its group — pattern and semantics — draws its
// graph, so that a plan divided by |Aut| is mined on its symmetric sibling's.
type dcase struct {
	name, group string
	pl          *plan.Plan
	noSym       bool
}

// sweep is every case, in a fixed order: the symmetric plan of a group first.
var sweep = sync.OnceValue(func() []dcase {
	var cs []dcase
	add := func(name, group string, noSym bool, pl *plan.Plan, err error) {
		if err != nil {
			panic(fmt.Sprintf("%s: %v", name, err))
		}
		cs = append(cs, dcase{name, group, pl, noSym})
	}
	for k := 2; k <= 6; k++ {
		for _, p := range pattern.Motifs(k) {
			for _, induced := range []bool{false, true} {
				group := p.Name() + map[bool]string{false: ",edge", true: ",induced"}[induced]
				for _, noSym := range []bool{false, true} {
					pl, err := plan.Compile(p, plan.Options{Induced: induced, NoSymmetry: noSym})
					add(group+map[bool]string{true: ",nosym"}[noSym], group, noSym, pl, err)
				}
			}
		}
	}
	for k := 3; k <= 6; k++ {
		pl, err := plan.CompileCliqueDAG(k)
		add(fmt.Sprintf("%d-clique,oriented", k), "", false, pl, err)
	}
	for k := 3; k <= 5; k++ {
		pl, err := plan.CompileMotifs(k, plan.Options{})
		add(fmt.Sprintf("%d-motifs,induced", k), "", false, pl, err)
	}
	m5 := pattern.Motifs(5)
	for _, m := range []struct {
		name string
		ps   []*pattern.Pattern
	}{
		{"burst", burstPatterns()}, {"4-motifs,edge", pattern.Motifs(4)},
		{"house+5-motif-13", []*pattern.Pattern{pattern.House(), m5[13]}}, // an enumerated branch below the factor's v1
		{"house+5-motif-6", []*pattern.Pattern{pattern.House(), m5[6]}},   // a local branch beside it
	} {
		pl, err := plan.CompileMulti(m.ps, plan.Options{})
		add(m.name, "", false, pl, err)
	}
	// Batches of 1–8 patterns of one size, relabelled at random, one per
	// isomorphism class.
	r := rand.New(rand.NewSource(29))
	for i := range 40 {
		k := 3 + r.Intn(3)
		cat := pattern.Motifs(k)
		var ps []*pattern.Pattern
		for n := 1 + r.Intn(8); n > 0; n-- {
			if p := cat[r.Intn(len(cat))].Relabel(r.Perm(k)); !slices.ContainsFunc(ps, p.IsIsomorphic) {
				ps = append(ps, p)
			}
		}
		o := plan.Options{Induced: r.Intn(2) == 0}
		pl, err := plan.CompileMulti(ps, o)
		add(fmt.Sprintf("batch%d", i), "", false, pl, err)
	}
	return cs
})

func caseNamed(name string) *dcase {
	cs := sweep()
	for i := range cs {
		if cs[i].name == name {
			return &cs[i]
		}
	}
	panic("no case " + name)
}

// suite holds what keys share: graphs and their stores, brute-force and ESU counts,
// the reference extensions of the symmetric plans, and the mechanisms that fired.
type suite struct {
	dir     string
	closers []func() error
	graphs  map[gspec]*graph.Graph
	perms   map[string]*graph.Graph // the randomly relabelled graphs, by spec and seed
	stores  map[string]graph.Store
	brute   map[string]int64
	esu     map[string]ObliviousResult
	symExt  map[string]int64
	fired   map[string]int
	indexed map[graph.Store]bool // the heap graphs whose arc index some run has built
}

func newSuite(tb testing.TB) *suite {
	s := &suite{dir: tb.TempDir(), graphs: map[gspec]*graph.Graph{}, perms: map[string]*graph.Graph{}, stores: map[string]graph.Store{},
		brute: map[string]int64{}, esu: map[string]ObliviousResult{}, symExt: map[string]int64{}, fired: map[string]int{},
		indexed: map[graph.Store]bool{}}
	tb.Cleanup(func() {
		for _, c := range s.closers {
			c()
		}
	})
	return s
}

func (s *suite) graph(spec gspec) *graph.Graph {
	if s.graphs[spec] == nil {
		s.graphs[spec] = spec.build()
	}
	return s.graphs[spec]
}

// labelled is the spec's graph under a labelling of the permutation axis, and with
// ranked its degree-ordered copy, the graph a relabelled plan's engine mines.
func (s *suite) labelled(spec gspec, perm int, ranked bool) *graph.Graph {
	g := s.graph(spec)
	switch id := fmt.Sprint(spec, perm); {
	case ranked:
		g, _ = s.labelled(spec, perm, false).DegreeOrdered()
	case perm == permDegree:
		g, _ = g.DegreeOrdered()
	case perm != permAsGiven && s.perms[id] == nil:
		r, n := rand.New(rand.NewSource(int64(hash(id)))), g.NumVertices()
		pi, edges := r.Perm(n), []graph.Edge(nil)
		for u := range n {
			for _, w := range g.Adj(graph.VID(u)) {
				edges = append(edges, graph.Edge{U: graph.VID(pi[u]), V: graph.VID(pi[w])})
			}
		}
		s.perms[id] = graph.MustFromEdges(n, edges)
		fallthrough
	case perm != permAsGiven:
		g = s.perms[id]
	}
	return g
}

// store is the spec's graph in a labelling, oriented for a DAG plan, in one of
// the backends.
func (s *suite) store(spec gspec, dag bool, backend, perm int, ranked bool) graph.Store {
	id := fmt.Sprint(spec, dag, backend, perm, ranked)
	if st := s.stores[id]; st != nil {
		return st
	}
	g, path := s.labelled(spec, perm, ranked), filepath.Join(s.dir, fmt.Sprint(len(s.stores)))
	if dag && backend == onHeap {
		g = g.Orient()
	} else if backend != onHeap {
		g = s.store(spec, dag, onHeap, perm, ranked).(*graph.Graph)
	}
	var st graph.Store = g
	var err error
	switch backend {
	case onMapped:
		if err = graph.SaveBinary(path, g); err == nil {
			var m *graph.Mapped
			m, err = graph.OpenMapped(path)
			st, s.closers = m, append(s.closers, m.Close)
		}
	case onSharded:
		if err = graph.WriteSharded(path, g, min(3, g.NumVertices())); err == nil {
			var sh *graph.Sharded
			sh, err = graph.OpenSharded(path)
			st, s.closers = sh, append(s.closers, sh.Close)
		}
	}
	if err != nil {
		panic(err)
	}
	s.stores[id] = st
	return st
}

func (s *suite) bruteCount(spec gspec, p *pattern.Pattern, induced bool) int64 {
	id := fmt.Sprint(spec, p.CanonicalCode(), induced)
	if _, ok := s.brute[id]; !ok {
		s.brute[id] = BruteCount(s.graph(spec), p, induced)
	}
	return s.brute[id]
}

// lister collects what List delivers, per pattern: the distinct copies — a copy is
// the edge set an embedding maps the pattern onto — and the embeddings that are
// not a match at all.
type lister struct {
	mu     sync.Mutex
	g      *graph.Graph
	edges  [][][2]int // per pattern, the pairs of plan levels that are edges
	non    [][][2]int // and, vertex-induced, that are not
	copies []map[string]int
	bad    []string
}

func newLister(g *graph.Graph, pl *plan.Plan) *lister {
	l := &lister{g: g, edges: make([][][2]int, len(pl.Patterns)), non: make([][][2]int, len(pl.Patterns))}
	for range pl.Patterns {
		l.copies = append(l.copies, map[string]int{})
	}
	var walk func(n *plan.Node, ops []plan.VertexOp)
	walk = func(n *plan.Node, ops []plan.VertexOp) {
		ops = append(ops, n.Op)
		for _, c := range n.Children {
			walk(c, ops)
		}
		if !n.IsLeaf() {
			return
		}
		i := n.PatternIdx
		for _, op := range ops[1:] {
			for _, j := range append([]int{op.Extender}, op.Connected...) {
				l.edges[i] = append(l.edges[i], [2]int{j, op.Level})
			}
			for _, j := range op.Disconnected {
				l.non[i] = append(l.non[i], [2]int{j, op.Level})
			}
		}
	}
	walk(pl.Root, nil)
	return l
}

func (l *lister) visit(emb []graph.VID, i int) {
	img := make([]uint64, 0, len(l.edges[i]))
	ok := true
	for _, e := range l.edges[i] {
		u, v := min(emb[e[0]], emb[e[1]]), max(emb[e[0]], emb[e[1]])
		ok = ok && u != v && l.g.Connected(u, v)
		img = append(img, uint64(u)<<32|uint64(v))
	}
	for _, e := range l.non[i] {
		ok = ok && emb[e[0]] != emb[e[1]] && !l.g.Connected(emb[e[0]], emb[e[1]])
	}
	slices.Sort(img)
	var id []byte
	for _, x := range img {
		id = binary.LittleEndian.AppendUint64(id, x)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !ok {
		l.bad = append(l.bad, fmt.Sprint(emb))
	}
	l.copies[i][string(id)]++
}

// check runs key k's case on its graph under every vector of vs and holds the runs
// to the oracle: counts equal BruteCount, ESU's on vertex-induced plans of ≤ 4
// vertices, and the simulator's on a seeded eighth of the keys; an OnTaskDone tally
// is Σ count·|Aut| without symmetry breaking (GraphZero's identity), Σ count with
// it; List delivers each copy once and nothing else, and refuses a plan that
// divides; Candidates is one number across the runs of one labelling; merge-only runs use no
// mechanism of KernelAuto's, and neither List nor a vertex-induced plan a closed
// form; Stats is one block across threads, stores, shapes and tracing at one
// resolved slice and labelling where the runs read no arc index (the files never
// do), and so is a heap run's with its index reads turned back into the scans and
// walks they replace; a program whose sweep kinds — weighed included — are cleared
// returns the swept run's Result exactly, every Stats field included, and so does a
// program that reads the arc index mined again on the index the first reading run
// built, and with the scans and walks its reads replace the same counts and
// Candidates; Extensions
// is no more under auto than under merge-only at one slice, and no fewer without
// symmetry breaking than with it. It returns one line per failure. mutate, when not nil, edits every counting program after lowering
// (TestDifferentialKillsMutants); edited reports whether it found something to edit.
func (s *suite) check(k key, vs []vec, mutate func(*program) bool) (fails []string, edited bool) {
	c := caseNamed(k.c)
	pl, dag, g := c.pl, c.pl.RequiresDAG, s.graph(k.g)
	// A counting auto run of a plan degreeOrdered takes mines its heap graph's
	// degree-ordered copy; the other runs of such a key mine that copy too — the
	// files, merge-only and List —, so that every comparison is of one labelled CSR.
	ranked := !dag && degreeOrdered(lower(g, pl, Options{}.withDefaults(), false))
	want, raw := make([]int64, len(pl.Patterns)), int64(0)
	for i, p := range pl.Patterns {
		want[i] = s.bruteCount(k.g, p, pl.Induced)
		aut := 1
		if c.noSym {
			aut = p.AutomorphismCount()
		}
		raw += want[i] * int64(aut)
	}
	fail := func(v any, format string, args ...any) {
		fails = append(fails, fmt.Sprintf("%v %v: %s", k, v, fmt.Sprintf(format, args...)))
	}
	fire := func(mechanism string, ok bool) {
		if ok && mutate == nil {
			s.fired[mechanism]++
		}
	}
	type run struct {
		v     vec
		s     Stats
		slice int
		arcs  bool // the program reads the heap graph's arc index
	}
	first := map[int]*run{} // by labelling, the first run on it
	var runs []run
	for _, v := range vs {
		o := Options{Threads: v.threads, SliceElems: v.slice}
		if v.merge {
			o.Kernel = KernelMergeOnly
		}
		if v.trace {
			o.Trace = obs.NewTracer(obs.NewVirtualClock(), 1<<12)
		}
		listing := v.shape == shapeList
		self := v.store == onHeap && !v.merge && !listing // the engine's own choice of labelling
		st := s.store(k.g, dag, v.store, v.perm, ranked && !self)
		var tally atomic.Int64
		if v.shape == shapeContext {
			o.OnTaskDone = func(_ int, m int64) { tally.Add(m) }
		}
		var l *lister
		var visit Visitor
		if listing {
			if slices.ContainsFunc(pl.CountDivisor, func(d int64) bool { return d != 1 }) {
				if _, err := List(st, pl, o, func([]graph.VID, int) {}); err == nil {
					fail(v, "List accepted a plan that divides by |Aut|")
				}
				continue
			}
			l = newLister(s.labelled(k.g, v.perm, ranked), pl)
			visit = l.visit
		}
		e, err := newEngine(st, pl, o, visit)
		if err != nil {
			fail(v, "%v", err)
			continue
		}
		if mined := graph.Store(s.labelled(k.g, v.perm, ranked)); self && !dag && e.g != mined {
			fail(v, "the engine mines a graph of %d vertices that is not the key's %s", e.g.NumVertices(), map[bool]string{false: "as given", true: "in degree order"}[ranked])
		}
		fire("degree-ordered copy", self && e.old != nil)
		fire(fmt.Sprint("vertex permutation ", min(v.perm, 2)), v.perm != permAsGiven)
		if v.capped {
			e.prog.lcap = min(e.prog.lcap, 4)
		}
		if mutate != nil && !listing && mutate(e.prog) {
			edited = true
			if _, heap := st.(*graph.Graph); e.prog.arcs && !heap {
				continue // a file has no arc index to read
			}
		}
		has := func(f func(n *node) bool) (yes bool) {
			e.prog.each(func(n *node, _ []*node) { yes = yes || f(n) })
			return yes
		}
		mine := func() (r Result, err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			if v.shape == shapeContext {
				return e.MineContext(context.Background())
			}
			return e.Mine(), nil
		}
		cold := e.prog.arcs && !s.indexed[e.g]
		res, err := mine()
		s.indexed[e.g] = s.indexed[e.g] || e.prog.arcs
		var pairs []*node // the pair loops, cleared back to the walk and mined again: the whole Result must not move
		e.prog.each(func(n *node, _ []*node) {
			if n.sweep == sweepPair {
				pairs = append(pairs, n)
			}
		})
		if pairs != nil && err == nil {
			tally.Store(0)
			for _, n := range pairs {
				n.sweep = noSweep
			}
			if walked, err := mine(); err != nil || !reflect.DeepEqual(walked, res) {
				fail(v, "with the pair loops walked %+v (%v), with them %+v", walked, err, res)
			}
			for _, n := range pairs {
				n.sweep = sweepPair
			}
			fire("pair loop off", true)
		}
		if unswept := v.unswept && has(func(n *node) bool { return n.sweep != noSweep }); unswept && err == nil {
			swept, weighed := res, has(func(n *node) bool { return n.sweep == sweepWeighed })
			tally.Store(0)
			e.prog.each(func(n *node, _ []*node) { n.sweep = noSweep })
			if res, err = mine(); err == nil && !reflect.DeepEqual(res, swept) {
				fail(v, "without the sweep %+v, with it %+v", res, swept)
			}
			fire("sweep off", true)
			fire("weighed sweep off", weighed)
		}
		if e.prog.arcs && err == nil { // the index axis: built once, by the first run that reads it
			tally.Store(0)
			if warm, err := mine(); err != nil || !reflect.DeepEqual(warm, res) {
				fail(v, "mined again on the index %+v (%v), before %+v", warm, err, res)
			}
			halves := has(func(n *node) bool { return n.half != 0 })
			fire("index built once, read by every reading run", cold)
			fire("arc index reads", res.Stats.BitmapProbes > 0)
			fire("arc index reads in a scan sweep", has(func(n *node) bool { return n.sweep == sweepScan && n.children[0].arc }))
			fire("arc index reads in a factor's walk", has(func(n *node) bool { return n.hoist != nil && n.arc }))
			fire("half-sums in whole-vertex tasks", halves)
			fire("half-sums on hub slices", halves && res.Stats.Tasks > int64(e.g.NumVertices()))
			tally.Store(0)
			e.prog.each(func(n *node, _ []*node) { n.arc, n.half = false, 0 }) // the scans the reads replace, the walks the half-sums replace
			scanned, err := mine()
			if err != nil || !slices.Equal(scanned.Counts, res.Counts) || scanned.Stats.Candidates != res.Stats.Candidates {
				fail(v, "with the scans and walks the index reads replace %+v (%v), with the reads %+v", scanned, err, res)
			}
			fire("half-sums turned back into the walk", halves)
			// A mapped file has no index: its lowering is the heap's less the reads, and
			// its Stats are the scans' and walks'.
			fo := o
			fo.OnTaskDone = nil
			if f, err := newEngine(s.store(k.g, dag, onMapped, v.perm, ranked), pl, fo, nil); err != nil || f.prog.arcs {
				fail(v, "a mapped file's engine (%v) reads the arc index", err)
			} else if mutate == nil {
				f.prog.lcap = e.prog.lcap
				if fr := f.Mine(); !reflect.DeepEqual(fr, scanned) {
					fail(v, "on a mapped file %+v, on the heap with the scans and walks the index reads replace %+v", fr, scanned)
				}
				fire("Stats without index reads compared across stores", true)
			}
		}
		if err != nil {
			fail(v, "%v", err)
			continue
		}
		rs := res.Stats
		if !slices.Equal(res.Counts, want) {
			fail(v, "counts %v, BruteCount %v", res.Counts, want)
		}
		if v.shape == shapeContext && tally.Load() != raw {
			fail(v, "OnTaskDone tallied %d matches, Σ count·|Aut| is %d", tally.Load(), raw)
		}
		for i := 0; l != nil && i < len(want); i++ {
			n := 0
			for _, m := range l.copies[i] {
				n += m
			}
			if int64(len(l.copies[i])) != want[i] || int64(n) != want[i] || len(l.bad) > 0 {
				fail(v, "pattern %d: List delivered %d copies in %d embeddings, %d no match (%.3v); BruteCount %d", i, len(l.copies[i]), n, len(l.bad), l.bad, want[i])
			}
		}
		if v.merge && rs.ClosedForms|rs.BitmapProbes|rs.GallopProbes|rs.LocalRows|rs.AuxBuilt|rs.AuxReused|rs.AuxBytesPeak != 0 {
			fail(v, "merge-only used a mechanism of KernelAuto's: %+v", rs)
		}
		if (listing || pl.Induced) && rs.ClosedForms != 0 || listing && rs.LeafCountsSkippedMaterialize != 0 || e.prog.aux == nil && rs.AuxBuilt != 0 {
			fail(v, "%d closed forms, %d unmaterialized leaves, %d aux rows of a program that keeps no spec", rs.ClosedForms, rs.LeafCountsSkippedMaterialize, rs.AuxBuilt)
		}
		if tr := o.Trace; tr != nil && (len(tr.Events()) == 0 || len(tr.Categories()) < 2) {
			fail(v, "the tracer recorded %d events in %v", len(tr.Events()), tr.Categories())
		}
		fire("closed form", rs.ClosedForms > 0 && has(func(n *node) bool { return n.closed.choose > 1 || n.closed.prod != nil }))
		fire("factor", rs.ClosedForms > 0 && has(func(n *node) bool { return n.fac != nil }))
		fire("far corner", rs.ClosedForms > 0 && has(func(n *node) bool { return n.far != nil }))
		fire(fmt.Sprintf("local rows, cap4=%v", v.capped), rs.LocalRows > 0)
		fire("swept scans", rs.BitmapProbes > 0 && has(func(n *node) bool { return n.sweep == sweepScan }))
		fire("swept local rows", rs.LocalRows > 0 && has(func(n *node) bool { return n.sweep == sweepLocal }))
		fire("swept weighed leaves", rs.ClosedForms > 0 && has(func(n *node) bool { return n.sweep == sweepWeighed }))
		hoisted := func(kind sweepKind) bool { return has(func(n *node) bool { return n.hoist != nil && n.sweep == kind }) }
		fire("hoisted weighed sweeps", rs.ClosedForms > 0 && hoisted(sweepWeighed))
		fire("hoisted count sweeps", rs.ClosedForms > 0 && hoisted(sweepCount))
		counted := func(f func(c *node) bool) bool {
			return rs.LeafCountsSkippedMaterialize > 0 && has(func(n *node) bool { return n.sweep == sweepCount && f(n.children[0]) })
		}
		fire("swept count leaves", counted(func(*node) bool { return true }))
		fire("swept count leaves with a suspect", counted(func(c *node) bool { return c.proof.suspects != nil }))
		fire("swept count leaves of an aux consumer", rs.AuxReused > 0 && counted(func(c *node) bool { return c.src == srcAux }))
		pairAt := func(d int) bool { return has(func(n *node) bool { return n.sweep == sweepPair && n.depth == d }) }
		fire("pair loops on the rows, depth 1", rs.LocalRows > 0 && pairAt(1))
		fire("pair loops on the rows, depth 2", rs.LocalRows > 0 && pairAt(2))
		fire("pair loops on hub slices", rs.LocalRows > 0 && pairAt(1) && slicedRows(e.g, e.prog, e.sliceElems()))
		fire("swept local kind off the rows", rs.LeafCountsSkippedMaterialize > 0 && overCap(st, e.prog) && has(func(n *node) bool { return n.sweep == sweepLocal }))
		fire("bounded scans stopped at their bound", rs.BitmapProbes > 0 && has(func(n *node) bool {
			return n.mode == leafCount && n.src == srcAdj && n.boundAt == plan.NoLevel && n.cmap.scan != nil && len(n.op.UpperBounds) > 0
		}))
		fire("c-map mark", e.prog.marks && rs.BitmapProbes > 0)
		fire("aux reuse", rs.AuxReused > 0)
		fire("hub slices", rs.Tasks > int64(g.NumVertices()))
		fire(storeAxis[v.store]+" "+shapeAxis[v.shape], true)
		runs = append(runs, run{v, rs, e.sliceElems(), e.prog.arcs})
	}

	same := map[string]*run{}
	for i := range runs {
		r := &runs[i]
		if first[r.v.perm] == nil {
			first[r.v.perm] = r
		}
		if q := first[r.v.perm]; r.s.Candidates != q.s.Candidates {
			fail(r.v, "%d candidates, %v had %d", r.s.Candidates, q.v, q.s.Candidates)
		}
		id := fmt.Sprint(r.v.merge, r.slice, r.v.capped && !r.v.merge, r.v.shape == shapeList, r.v.perm, r.arcs)
		if q := same[id]; q == nil {
			same[id] = r
		} else if r.s != q.s {
			fail(r.v, "Stats %+v, %v had %+v", r.s, q.v, q.s)
		} else {
			fire("Stats compared across threads", r.v.threads != q.v.threads)
			fire("Stats compared across stores", r.v.store != q.v.store)
			fire("Stats compared with tracing on and off", r.v.trace != q.v.trace)
		}
		for _, q := range runs[:i] {
			a, m := r, &q
			if a.v.merge {
				a, m = m, a
			}
			counting := a.v.shape != shapeList
			if a.v.merge || !m.v.merge || a.slice != m.slice || counting != (m.v.shape != shapeList) || a.v.perm != m.v.perm {
				continue
			}
			if a.s.Extensions > m.s.Extensions || k.fewer && counting && a.s.ClosedForms > 0 && a.s.Extensions >= m.s.Extensions {
				fail(a.v, "%d extensions, %v had %d", a.s.Extensions, m.v, m.s.Extensions)
			}
			if work := a.s.SetOpIterations + a.s.GallopProbes + a.s.BitmapProbes; k.bounded && counting && work > m.s.SetOpIterations {
				fail(a.v, "kernel work %d, merge iterations of %v %d", work, m.v, m.s.SetOpIterations)
			}
		}
	}
	if sym := fmt.Sprint(c.group, k.g); c.group != "" && len(runs) > 0 && runs[0].v == ref[0] {
		if !c.noSym {
			s.symExt[sym] = runs[0].s.Extensions
		} else if ext, ok := s.symExt[sym]; ok && runs[0].s.Extensions < ext {
			fail(runs[0].v, "%d extensions without symmetry breaking, %d with it", runs[0].s.Extensions, ext)
		}
	}

	if pl.Induced && pl.K <= 4 && !dag {
		id := fmt.Sprint(k.g, pl.K)
		if _, ok := s.esu[id]; !ok {
			s.esu[id] = MineOblivious(g, pl.K, 2)
		}
		obl, total := s.esu[id], int64(0)
		for i, p := range pl.Patterns {
			if total += want[i]; obl.CountInduced(p) != want[i] {
				fail("ESU", "pattern %d: %d, BruteCount %d", i, obl.CountInduced(p), want[i])
			}
		}
		if len(pl.Patterns) == len(pattern.Motifs(pl.K)) && total != obl.Enumerated {
			fail("ESU", "enumerated %d subgraphs, the census counts %d", obl.Enumerated, total)
		}
	}
	if hash(k.String())%8 == 0 {
		fire("simulator", true)
		pe4 := sim.DefaultConfig().WithPEs(4)
		for _, cfg := range []sim.Config{pe4.WithCMapBytes(0), pe4, pe4.WithUnlimitedCMap()} {
			if res, err := sim.Simulate(s.store(k.g, dag, onHeap, permAsGiven, false).(*graph.Graph), pl, cfg); err != nil || !slices.Equal(res.Counts, want) {
				fail(fmt.Sprintf("sim c-map %dB unlimited=%v", cfg.CMapBytes, cfg.CMapUnlimited), "counts %v (%v), BruteCount %v", res.Counts, err, want)
			}
		}
	}
	return fails, edited
}

// biclique is the complete bipartite K_{a,b}: the a vertices of one side are twins
// of each other in every list of the b others, and the other way round.
func biclique(a, b int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, graph.Edge{U: graph.VID(i), V: graph.VID(a + j)})
		}
	}
	return graph.MustFromEdges(a+b, edges)
}

// TestDifferential runs the pins, then every case of the sweep on the graph its
// group draws. A failure prints its key — paste it into pins to keep it — and the
// case's lowering; `go test -run '^TestDifferential$/^4-cycle,edge$' ./internal/core`
// reruns one case. Run whole, it also requires every mechanism and axis to have
// fired in some run, so that none is vacuous.
func TestDifferential(t *testing.T) {
	s := newSuite(t)
	keys := slices.Clone(pins)
	for _, c := range sweep() {
		keys = append(keys, drawn(c))
	}
	ran := 0
	for i, k := range keys {
		name := k.c
		if i < len(pins) {
			name = fmt.Sprintf("pin/%s@%s", k.c, k.g.family)
		}
		t.Run(name, func(t *testing.T) {
			ran++
			s.report(t, k, vectors(k))
		})
	}
	if ran < len(keys) {
		return
	}
	mechanisms := []string{"closed form", "factor", "far corner", "local rows, cap4=false", "local rows, cap4=true",
		"swept scans", "swept local rows", "swept weighed leaves", "swept count leaves", "swept count leaves with a suspect",
		"swept count leaves of an aux consumer", "swept local kind off the rows", "sweep off", "weighed sweep off",
		"pair loop off", "pair loops on the rows, depth 1", "pair loops on the rows, depth 2", "pair loops on hub slices",
		"hoisted weighed sweeps", "hoisted count sweeps",
		"bounded scans stopped at their bound",
		"arc index reads", "arc index reads in a scan sweep", "arc index reads in a factor's walk", "index built once, read by every reading run",
		"half-sums in whole-vertex tasks", "half-sums on hub slices", "half-sums turned back into the walk",
		"Stats without index reads compared across stores",
		"c-map mark", "aux reuse", "hub slices", "simulator", "degree-ordered copy", "vertex permutation 1",
		"vertex permutation 2", "Stats compared across threads",
		"Stats compared across stores", "Stats compared with tracing on and off"}
	for _, st := range storeAxis {
		for _, sh := range shapeAxis {
			mechanisms = append(mechanisms, st+" "+sh)
		}
	}
	s.require(t, mechanisms...)
}

// drawn is c on the graph its group draws.
func drawn(c dcase) key {
	return key{c: c.name, g: drawGraph(hash(cmp.Or(c.group, c.name)), c.pl.K)}
}

// report checks k under vs and prints each failure with the case's lowering.
func (s *suite) report(t *testing.T, k key, vs []vec) {
	t.Helper()
	if fails, _ := s.check(k, vs, nil); len(fails) > 0 {
		pl := caseNamed(k.c).pl
		t.Errorf("%s\nthe case lowers to (auto, counting):\n%s", strings.Join(fails, "\n"),
			lowering(lower(s.store(k.g, pl.RequiresDAG, onHeap, permAsGiven, false), pl, Options{}.withDefaults(), false)))
	}
}

// require fails t for each mechanism that fired in no run of s.
func (s *suite) require(t *testing.T, mechanisms ...string) {
	t.Helper()
	for _, m := range mechanisms {
		if s.fired[m] == 0 {
			t.Errorf("%s: in no run of the sweep; the axis is vacuous", m)
		}
	}
}

// The named slices below keep the names of the grids the suite replaced: each runs
// the part of the sweep its grid covered, under the references and the vectors of
// its axis, through the same oracle, and requires the mechanisms it is about to
// have fired. None enumerates a pattern, a graph or a clause of its own.

// runSlice checks the keys ks and the sweep's cases sel admits, on the graphs their
// groups draw, under the two references and vs.
func runSlice(t *testing.T, sel func(c dcase) bool, ks []key, vs []vec, needs ...string) {
	s := newSuite(t)
	for _, c := range sweep() {
		if sel != nil && sel(c) {
			ks = append(ks, drawn(c))
		}
	}
	vs = slices.Concat(ref[:], vs)
	for _, k := range ks {
		s.report(t, k, vs)
	}
	s.require(t, needs...)
}

// upTo admits the symmetric single-pattern cases of at most k vertices.
func upTo(k int) func(dcase) bool {
	return func(c dcase) bool { return c.group != "" && !c.noSym && c.pl.K <= k }
}

func either(fs ...func(dcase) bool) func(dcase) bool {
	return func(c dcase) bool { return slices.ContainsFunc(fs, func(f func(dcase) bool) bool { return f(c) }) }
}

func oriented(c dcase) bool { return c.pl.RequiresDAG }

// trees admits the motif censuses and the merged trees, batches admits the seeded
// batches of relabelled patterns.
func trees(c dcase) bool   { return c.group == "" && !c.pl.RequiresDAG && !batches(c) }
func batches(c dcase) bool { return strings.HasPrefix(c.name, "batch") }

// lowersTo admits the cases whose counting program under auto has a node f admits.
func lowersTo(f func(n *node) bool) func(dcase) bool {
	g := graph.ErdosRenyi(40, 120, 1)
	return func(c dcase) (yes bool) {
		lower(g, c.pl, Options{}.withDefaults(), false).each(func(n *node, _ []*node) { yes = yes || f(n) })
		return yes
	}
}

// auxKeys are the plans of the aux grid on graphs dense enough to keep a spec: one
// whose spec survives lowering (the vertex-induced 4-path), one whose does not
// (house: its v2 is a factor), and plans without any (cliques, the 4-motif census).
var auxKeys = []key{
	{c: "4-path,induced", g: gspec{"er", 40, 140, 9}}, {c: "4-path,induced", g: gspec{"rmat", 6, 220, 3}},
	{c: "5-motif-14,edge", g: gspec{"er", 30, 90, 9}}, {c: "4-clique,edge", g: gspec{"rmat", 6, 220, 3}},
	{c: "4-clique,oriented", g: gspec{"rmat", 6, 220, 3}}, {c: "4-motifs,edge", g: gspec{"rmat", 6, 220, 3}},
}

// pinned are the pins whose case sel admits.
func pinned(sel func(dcase) bool) []key {
	return slices.DeleteFunc(slices.Clone(pins), func(k key) bool { return !sel(*caseNamed(k.c)) })
}

var (
	t3s4  = vec{threads: 3, slice: 4}
	mt3s4 = vec{merge: true, threads: 3, slice: 4}
)

func TestEngineMatchesBruteForce(t *testing.T) { runSlice(t, upTo(5), nil, nil) }

func TestNoSymmetryMode(t *testing.T) {
	runSlice(t, func(c dcase) bool { return c.group != "" && c.pl.K <= 5 }, nil,
		[]vec{{threads: 1, slice: SliceOff, shape: shapeContext}, {threads: 3, slice: 4, shape: shapeList}})
}

func TestMotifCountsMatchOracles(t *testing.T) {
	runSlice(t, func(c dcase) bool { return c.pl.Induced && !c.noSym && !c.pl.RequiresDAG && c.pl.K <= 4 }, nil, nil)
}

func TestMultiPatternTree(t *testing.T) {
	runSlice(t, trees, nil, []vec{{threads: 1, slice: SliceOff, shape: shapeList}, {threads: 3, slice: 4, shape: shapeContext}})
}

func TestThreadCountInvariance(t *testing.T) {
	runSlice(t, either(upTo(4), trees), nil, []vec{{threads: 3}, {threads: 16}, {merge: true, threads: 16}})
}

func TestRandomPatternsMatchBruteForce(t *testing.T) {
	runSlice(t, batches, nil,
		[]vec{{threads: 3, slice: 1, store: onMapped}, {merge: true, threads: 16, slice: 32, store: onSharded, shape: shapeList}})
}

func TestKernelInvariance(t *testing.T) {
	runSlice(t, func(c dcase) bool { return upTo(5)(c) && !c.pl.Induced }, nil, []vec{mt3s4, t3s4}, "closed form")
}

func TestKernelInvarianceDAG(t *testing.T) {
	runSlice(t, oriented, nil, []vec{mt3s4, t3s4, {merge: true, threads: 16, slice: 1}, {threads: 16, slice: 1}})
}

func TestKernelInvarianceInduced(t *testing.T) {
	runSlice(t, func(c dcase) bool { return c.pl.Induced && !c.noSym && c.pl.K <= 5 }, nil, []vec{mt3s4, t3s4}, "aux reuse")
}

func TestListUnaffectedByKernel(t *testing.T) {
	runSlice(t, upTo(5), nil, []vec{{merge: true, threads: 1, slice: SliceOff, shape: shapeList}, {threads: 1, slice: SliceOff, shape: shapeList}})
}

var schedVecs = []vec{{threads: 3, slice: 1}, {threads: 16, slice: 4}, {threads: 3, slice: 32}, {threads: 16}}

func TestSchedulerInvariance(t *testing.T) {
	runSlice(t, func(c dcase) bool { return upTo(4)(c) && !c.pl.Induced }, nil, schedVecs, "hub slices")
}

func TestSchedulerInvarianceDAG(t *testing.T) { runSlice(t, oriented, nil, schedVecs, "hub slices") }

func TestListMatchesMineUnderSlicing(t *testing.T) {
	runSlice(t, upTo(5), nil, []vec{{threads: 3, slice: 1, shape: shapeList}, {threads: 3, slice: 4, shape: shapeList}, {threads: 16, slice: 32, shape: shapeList}}, "hub slices")
}

func TestListingMatchesCounting(t *testing.T) {
	runSlice(t, either(upTo(4), oriented, trees), nil, []vec{{threads: 1, slice: SliceOff, shape: shapeList}, {threads: 3, slice: 4, store: onMapped, shape: shapeList}})
}

func TestAuxModeCountInvariance(t *testing.T) {
	runSlice(t, nil, auxKeys, []vec{{threads: 1, slice: SliceOff, capped: true}, t3s4, mt3s4}, "aux reuse")
}

func TestAuxCrossBackendEquivalence(t *testing.T) {
	runSlice(t, nil, auxKeys, []vec{{threads: 1, slice: 4}, {threads: 3, slice: 4, store: onMapped}, {threads: 16, slice: 4, store: onSharded}},
		"aux reuse", "Stats compared across stores", "Stats compared across threads")
}

func TestAuxListEquivalence(t *testing.T) {
	runSlice(t, nil, auxKeys, []vec{{threads: 1, slice: SliceOff, shape: shapeList}, {merge: true, threads: 1, slice: SliceOff, shape: shapeList}, {threads: 3, slice: 4, store: onSharded, shape: shapeList}}, "aux reuse")
}

func TestCMapDifferentialGrid(t *testing.T) {
	runSlice(t, either(upTo(5), oriented, func(c dcase) bool { return c.name == "4-motifs,edge" }), nil,
		[]vec{t3s4, mt3s4, {threads: 16, slice: 1, shape: shapeList}}, "c-map mark")
}

func TestFactorDifferential(t *testing.T) {
	fac := lowersTo(func(n *node) bool { return n.fac != nil })
	runSlice(t, func(c dcase) bool { return upTo(6)(c) && fac(c) }, pinned(fac),
		[]vec{{threads: 3, slice: 1}, {threads: 16, slice: 32}, {threads: 1, slice: SliceOff, capped: true}}, "factor")
}

func TestFarSideDifferential(t *testing.T) {
	far := lowersTo(func(n *node) bool { return n.far != nil })
	runSlice(t, func(c dcase) bool { return upTo(6)(c) && far(c) }, pinned(far),
		[]vec{{threads: 3, slice: 1}, {threads: 16, slice: 32}}, "far corner")
}

func TestLeafEvaluationsAgree(t *testing.T) {
	runSlice(t, either(upTo(5), trees), nil,
		[]vec{{threads: 1, slice: SliceOff, capped: true}, {threads: 1, slice: SliceOff, shape: shapeList}, t3s4, mt3s4, {threads: 3, slice: 4, capped: true}},
		"closed form", "local rows, cap4=false", "local rows, cap4=true")
}

var storeVecs = []vec{{threads: 3, slice: 4}, {threads: 3, slice: 4, store: onMapped}, {threads: 3, slice: 4, store: onSharded}}

func TestStorageBackendEquivalence(t *testing.T) {
	runSlice(t, either(upTo(4), oriented), nil, storeVecs, "Stats compared across stores")
}

func TestStorageBackendListEquivalence(t *testing.T) {
	vs := slices.Clone(storeVecs)
	for i := range vs {
		vs[i].shape = shapeList
	}
	runSlice(t, either(upTo(4), oriented), nil, vs, "Stats compared across stores")
}

func TestMetamorphicWorkerStatsInvariance(t *testing.T) {
	runSlice(t, either(upTo(4), trees), nil, []vec{{threads: 1, slice: 4}, t3s4, {threads: 16, slice: 4}, {merge: true, threads: 16, slice: 4}},
		"Stats compared across threads")
}

func TestMetamorphicKernelCostBound(t *testing.T) {
	runSlice(t, nil, pins[:1], []vec{{merge: true, threads: 4, slice: 16}, {threads: 4, slice: 16}})
}

func TestMetamorphicTracingIsInert(t *testing.T) {
	runSlice(t, either(upTo(4), oriented), nil, []vec{{threads: 1, slice: SliceOff, trace: true}, t3s4, {threads: 3, slice: 4, trace: true}},
		"Stats compared with tracing on and off")
}

// nothing is a count-only node at depth d that counts no candidate: its extender's
// row less that row.
func nothing(p *program, d int) *node {
	op := plan.VertexOp{Level: d, Disconnected: []int{0}, FrontierBase: plan.NoLevel, AuxBase: plan.NoLevel}
	return p.build(&plan.Node{Op: op}, make([]*node, d), false)
}

// TestDifferentialKillsMutants: the oracle catches a wrong lowering. Each mutant
// edits every node of a counting program it applies to, as PRs 20, 21 and 24
// recorded by hand, and must fail the oracle on some drawable pin. The last two
// edits keep the counts — a hoisted list's owner named among its NotEqual
// ancestors, and a factor's membership test by search instead of a c-map probe,
// what a source level past cmLevels gets — and must fail on none.
func TestDifferentialKillsMutants(t *testing.T) {
	s := newSuite(t)
	// A closed form's mutants die where walk reaches it and where a count sweep does.
	dropB := func(swept bool) func(n *node, p *program) bool {
		return func(n *node, p *program) bool {
			if len(n.closed.prod) < 2 || swept && !sweptForm(p, n) {
				return false
			}
			n.closed.prod = n.closed.prod[:1]
			return true
		}
	}
	chooseUp := func(swept bool) func(n *node, p *program) bool {
		return func(n *node, p *program) bool {
			if n.closed.choose < 2 || swept && !sweptForm(p, n) {
				return false
			}
			n.closed.choose++
			return true
		}
	}
	for _, m := range []struct {
		name string
		dies bool
		edit func(n *node, p *program) bool
	}{
		{"a product's B dropped", true, dropB(false)},
		{"a swept product's B dropped", true, dropB(true)},
		{"closed.choose + 1", true, chooseUp(false)},
		{"a swept closed.choose + 1", true, chooseUp(true)},
		{"a candidate-dependent operand evaluated once per list", true, func(n *node, _ *program) bool {
			if n.sweep != sweepCount {
				return false
			}
			c := n.children[0]
			for _, t := range append([]*node{c}, c.closed.prod...) {
				if !t.once {
					t.once = true
					return true
				}
			}
			return false
		}},
		{"a far corner's twins − 1", true, func(n *node, _ *program) bool {
			if n.twins < 2 {
				return false
			}
			n.twins--
			return true
		}},
		{"a factor leaf's minus dropped", true, func(n *node, p *program) bool {
			if n.fac == nil || n.fac.minus == nil {
				return false
			}
			n.fac.minus = nothing(p, n.depth)
			return true
		}},
		{"a probed suspect taken as certain", true, func(n *node, _ *program) bool {
			i := slices.IndexFunc(n.proof.suspects, func(s suspect) bool { return s.probe })
			if i < 0 {
				return false
			}
			n.proof.certain = append(n.proof.certain, n.proof.suspects[i].j)
			n.proof.suspects = slices.Delete(n.proof.suspects, i, i+1)
			return true
		}},
		{"a need bit dropped from a scan mask", true, func(n *node, _ *program) bool {
			if n.cmap.scan == nil || n.cmap.scan[0].need&(n.cmap.scan[0].need-1) == 0 {
				return false
			}
			n.cmap.scan[0].need &= n.cmap.scan[0].need - 1
			return true
		}},
		{"a swept leaf replaced by nothing", true, func(n *node, p *program) bool {
			if n.sweep == noSweep {
				return false
			}
			n.children[0] = nothing(p, n.depth+1)
			return true
		}},
		// The fused pass's B half needs the bit of a level no pattern here has, so B
		// counts nothing wherever the two scans pay and the subtraction is skipped.
		{"a weighed sweep without its B", true, func(n *node, _ *program) bool {
			if n.sweep != sweepWeighed {
				return false
			}
			n.children[0].fac.minus.cmap.scan = []chainOp{{need: 1 << (cmLevels - 1)}}
			return true
		}},
		// A hoisted sweep (decision 27) gathers from counters its owner's vertex owns;
		// pointed at an owner that never descends, they outlive that vertex.
		{"a hoisted sweep's counters carried over to its owner's next vertex", true, func(n *node, _ *program) bool {
			if n.hoist == nil {
				return false
			}
			n.hoist = &node{depth: n.hoist.depth}
			return true
		}},
		// The counters cover the owner's whole row; the list's NotEqual ancestors are
		// what the rows outside the list take out again.
		{"a hoisted sweep's NotEqual ancestor not taken out", true, func(n *node, _ *program) bool {
			if n.hoist == nil || len(n.op.NotEqual) == 0 {
				return false
			}
			op := *n.op
			op.NotEqual = nil
			n.op = &op
			return true
		}},
		// The hoisted weighed sum takes B out for every candidate, also where the
		// weighted product is 0 — right only because B ⊆ A. With A counting nothing
		// and B left as it is, that no longer holds.
		{"B subtracted where the weighted product is 0", true, func(n *node, _ *program) bool {
			if n.hoist == nil || n.sweep != sweepWeighed {
				return false
			}
			n.children[0].cmap.scan = []chainOp{{need: 1 << (cmLevels - 1)}}
			return true
		}},
		// A list-free sweep drops, and takes the rows out of, only the NotEqual
		// ancestors found in R. Naming the owner instead — never in its own row —
		// leaves the ancestor that is in R in the list.
		{"a NotEqual ancestor that is not in R is subtracted", true, func(n *node, _ *program) bool {
			if n.hoist == nil || len(n.op.NotEqual) == 0 {
				return false
			}
			op := *n.op
			op.NotEqual = []int{n.hoist.depth}
			n.op = &op
			return true
		}},
		// An arc read takes the extender's loop position for the arc's position in a's
		// row: right only where the extender's list is that whole row.
		{"an arc read where the extender's list is not a's row", true, func(n *node, p *program) bool {
			if n.mode != leafCount || n.arc || len(n.cmap.scan) != 1 || n.cmap.scan[0].avoid != 0 || bits.OnesCount8(n.cmap.scan[0].need) != 1 {
				return false
			}
			n.arc, p.arcs = true, true
			return true
		}},
		// A depth-1 pair loop iterates the task's hub slice of the universe. Taken for a
		// local node with no operand, it iterates all of the universe from position 0,
		// whatever slice the task holds: every slice past the first counts again.
		{"a depth-1 pair loop that ignores the hub slice", true, func(n *node, _ *program) bool {
			if n.sweep != sweepPair || n.depth != 1 {
				return false
			}
			n.local.on = true
			return true
		}},
		// Each edge inside a's row is one pair (v1, v2 < v1); the slots count it from
		// both ends.
		{"a half-sum without the ½", true, func(n *node, _ *program) bool {
			if n.half != 2 {
				return false
			}
			n.half = 1
			return true
		}},
		// Hub slicing cuts depth 1's list alone, so a half-sum there runs in
		// whole-vertex tasks only. Taken for a deeper level's, it runs in every slice
		// of a hub, and each slice counts all of the hub's edges.
		{"a half-sum on a hub slice", true, func(n *node, _ *program) bool {
			if n.half == 0 || n.depth != 1 {
				return false
			}
			n.depth = 2
			return true
		}},
		// Naming the owner besides them changes no list: a sweep that took out an
		// ancestor it did not find in R would count less here.
		{"a hoisted list's owner named among its NotEqual ancestors", false, func(n *node, _ *program) bool {
			if n.hoist == nil {
				return false
			}
			op := *n.op
			op.NotEqual = append(slices.Clone(op.NotEqual), n.hoist.depth)
			n.op = &op
			return true
		}},
		{"a factor's membership searched", false, func(n *node, _ *program) bool {
			if n.fac == nil || n.fac.in == nil {
				return false
			}
			n.fac.in = nil
			return true
		}},
	} {
		var edited, failed bool
		for _, k := range slices.DeleteFunc(slices.Clone(pins), func(k key) bool { return !drawable(k) }) {
			fails, ok := s.check(k, vectors(k), func(p *program) (hit bool) {
				p.each(func(n *node, _ []*node) { hit = m.edit(n, p) || hit })
				return hit
			})
			edited, failed = edited || ok, failed || ok && len(fails) > 0
		}
		if !edited || failed != m.dies {
			t.Errorf("%s: edited a program %v, failed the oracle %v; want an edit, and a failure %v", m.name, edited, failed, m.dies)
		}
	}
}

// sweptForm: n is the closed form of a node that sweepLeaves gave the count kind.
func sweptForm(p *program, n *node) (yes bool) {
	p.each(func(a *node, _ []*node) { yes = yes || a.sweep == sweepCount && a.children[0] == n })
	return yes
}

// overCap: some task on st runs off p's local rows, its universe past the cap.
func overCap(st graph.Store, p *program) bool {
	for v := range st.NumVertices() {
		u := st.Adj(graph.VID(v))
		if p.lbelow {
			i, _ := slices.BinarySearch(u, graph.VID(v))
			u = u[:i]
		}
		if len(u) > p.lcap {
			return true
		}
	}
	return false
}

// slicedRows: some task on st runs on p's local rows from a hub slice past the first,
// its start vertex's universe longer than one slice and no longer than the cap.
func slicedRows(st graph.Store, p *program, slice int) bool {
	for v := range st.NumVertices() {
		u := st.Adj(graph.VID(v))
		if p.lbelow {
			i, _ := slices.BinarySearch(u, graph.VID(v))
			u = u[:i]
		}
		if slice > 0 && len(u) > slice && len(u) <= p.lcap {
			return true
		}
	}
	return false
}

// drawable: the fuzzer can draw k's graph — no larger than the sweep draws for
// the case's pattern size. The 600-vertex fixture of the kernel-cost bound is not.
func drawable(k key) bool {
	sz := sized(caseNamed(k.c).pl.K, slices.Index(families[:], k.g.family))
	return k.g.n <= sz[0] && k.g.m <= sz[1]
}

// FuzzDifferential is the oracle behind the fuzzer: a case, a graph of the
// fuzzer's family, size and seed — no larger than the sweep draws for the case —,
// and one option vector beside the two references. The seed corpus is the
// drawable pins.
func FuzzDifferential(f *testing.F) {
	cs := sweep()
	for _, k := range pins {
		if drawable(k) {
			ci := slices.IndexFunc(cs, func(c dcase) bool { return c.name == k.c })
			fam := slices.Index(families[:], k.g.family)
			f.Add(uint16(ci), uint8(fam), uint16(k.g.n), uint16(k.g.m), k.g.seed, uint32(hash(k.String())))
		}
	}
	s := newSuite(f)
	f.Fuzz(func(t *testing.T, ci uint16, fam uint8, n, m uint16, seed uint64, x uint32) {
		c, family := cs[int(ci)%len(cs)], int(fam)%len(families)
		sz := sized(c.pl.K, family)
		k := key{c: c.name, g: gspec{families[family], max(1, min(int(n), sz[0])), min(int(m), sz[1]), seed}}
		if fails, _ := s.check(k, []vec{ref[0], ref[1], decode(x)}, nil); len(fails) > 0 {
			t.Error(strings.Join(fails, "\n"))
		}
	})
}
