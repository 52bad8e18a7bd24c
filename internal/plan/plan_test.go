package plan

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/pattern"
)

func TestMatchingOrderDiamondSearchesTriangleFirst(t *testing.T) {
	// Fig 5: the triangle-first matching order must win for the diamond.
	mo := BestMatchingOrder(pattern.Diamond())
	p := pattern.Diamond()
	counts := connectedAncestorCounts(p, mo)
	if counts[2] != 2 {
		t.Errorf("diamond order %v has CA counts %v; want a triangle by level 2", mo, counts)
	}
}

func TestMatchingOrdersAreConnected(t *testing.T) {
	for _, p := range []*pattern.Pattern{
		pattern.Triangle(), pattern.FourCycle(), pattern.Diamond(),
		pattern.TailedTriangle(), pattern.House(), pattern.KStar(5), pattern.KPath(5),
	} {
		mo := BestMatchingOrder(p)
		if !isConnectedOrder(p, mo) {
			t.Errorf("%s: best order %v not connected", p.Name(), mo)
		}
		for _, o := range EnumerateMatchingOrders(p) {
			if !isConnectedOrder(p, o) {
				t.Errorf("%s: enumerated order %v not connected", p.Name(), o)
			}
		}
	}
}

func TestEnumerateMatchingOrderCounts(t *testing.T) {
	// For K_k every permutation is connected: k! orders.
	if got := len(EnumerateMatchingOrders(pattern.KClique(3))); got != 6 {
		t.Errorf("K3 orders = %d want 6", got)
	}
	// For the wedge: center first gives 2 leaf orders; leaf first forces
	// center next then other leaf: 2×... enumerate manually = 4.
	if got := len(EnumerateMatchingOrders(pattern.Wedge())); got != 4 {
		t.Errorf("wedge orders = %d want 4", got)
	}
}

func TestSymmetryOrderFourCycleMatchesPaper(t *testing.T) {
	pl, err := Compile(pattern.FourCycle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ops := pl.Chain()
	if ops == nil {
		t.Fatal("4-cycle plan is not a chain")
	}
	// Paper (Listing 1): bounds v1<v0, v2<v1, v3<v0.
	wantBounds := [][]int{nil, {0}, {1}, {0}}
	for lvl, want := range wantBounds {
		if !slices.Equal(ops[lvl].UpperBounds, want) {
			t.Errorf("level %d bounds = %v want %v", lvl, ops[lvl].UpperBounds, want)
		}
	}
	// §VI-B: insert v1's neighbors only, bounded by v0.
	if !ops[1].InsertCMap || ops[1].CMapBound != 0 {
		t.Errorf("level 1 cmap hints: insert=%v bound=%d", ops[1].InsertCMap, ops[1].CMapBound)
	}
	if ops[0].InsertCMap || ops[2].InsertCMap {
		t.Error("unnecessary cmap insertions")
	}
}

func TestSymmetryConstraintsPointForward(t *testing.T) {
	for _, p := range []*pattern.Pattern{
		pattern.Triangle(), pattern.FourCycle(), pattern.Diamond(),
		pattern.KClique(5), pattern.KCycle(5), pattern.KStar(5),
	} {
		order := BestMatchingOrder(p)
		q := relabelByOrder(p, order)
		for _, c := range SymmetryOrder(q) {
			if c.Lo >= c.Hi {
				t.Errorf("%s: constraint %+v does not point at a later level", p.Name(), c)
			}
		}
	}
}

func TestSymmetryOrderCliqueIsTotal(t *testing.T) {
	// K_k is fully symmetric: the symmetry order must be a total chain,
	// i.e. level i bounded by level i-1 after reduction.
	pl, err := Compile(pattern.KClique(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for lvl, op := range pl.Chain() {
		if lvl == 0 {
			continue
		}
		if !slices.Equal(op.UpperBounds, []int{lvl - 1}) {
			t.Errorf("K4 level %d bounds %v want [%d]", lvl, op.UpperBounds, lvl-1)
		}
	}
}

func TestDiamondFrontierReuse(t *testing.T) {
	// §V-C: v2 and v3 of the diamond share the candidate set
	// adj(v0) ∩ adj(v1); the compiler must memoize and reuse it.
	pl, err := Compile(pattern.Diamond(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ops := pl.Chain()
	if !ops[2].MemoizeFrontier {
		t.Error("diamond level 2 not memoized")
	}
	if ops[3].FrontierBase != 2 {
		t.Errorf("diamond level 3 frontier base = %d want 2", ops[3].FrontierBase)
	}
	if len(ops[3].IntersectWith) != 0 {
		t.Errorf("diamond level 3 residual intersects = %v want none", ops[3].IntersectWith)
	}
}

func TestCliqueDAGFrontierChain(t *testing.T) {
	pl, err := CompileCliqueDAG(5)
	if err != nil {
		t.Fatal(err)
	}
	ops := pl.Chain()
	for lvl := 3; lvl < 5; lvl++ {
		if ops[lvl].FrontierBase != lvl-1 {
			t.Errorf("5-clique DAG level %d frontier base = %d want %d", lvl, ops[lvl].FrontierBase, lvl-1)
		}
		if !slices.Equal(ops[lvl].IntersectWith, []int{lvl - 1}) {
			t.Errorf("5-clique DAG level %d residual = %v want [%d]", lvl, ops[lvl].IntersectWith, lvl-1)
		}
	}
	if !pl.RequiresDAG {
		t.Error("DAG plan not marked")
	}
	if len(ops[4].UpperBounds) != 0 {
		t.Error("DAG plan has symmetry bounds")
	}
}

func TestInducedPlansCarryDisconnections(t *testing.T) {
	pl, err := Compile(pattern.Wedge(), Options{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := pl.Chain()
	total := 0
	for _, op := range ops {
		total += len(op.Disconnected)
	}
	if total == 0 {
		t.Error("induced wedge plan has no disconnection constraints")
	}
	plE, err := Compile(pattern.Wedge(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range plE.Chain() {
		if len(op.Disconnected) != 0 {
			t.Error("edge-induced plan has disconnection constraints")
		}
	}
}

func TestMultiPatternMergeSharesPrefix(t *testing.T) {
	// Listing 2: diamond and tailed-triangle share v0, v1, v2.
	pl, err := CompileMulti([]*pattern.Pattern{pattern.Diamond(), pattern.TailedTriangle()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Count branch points: the root chain should be shared at least through
	// level 1 (both start with v1 ∈ adj(v0), v1 < v0).
	n := pl.Root
	depth := 0
	for len(n.Children) == 1 {
		n = n.Children[0]
		depth++
	}
	if depth < 1 {
		t.Errorf("no shared prefix (branches at depth %d)", depth)
	}
	if len(n.Children) < 2 && n.PatternIdx == NoLevel {
		t.Error("tree never branches yet has two patterns")
	}
}

func TestMultiPatternRejects(t *testing.T) {
	if _, err := CompileMulti([]*pattern.Pattern{pattern.Triangle(), pattern.KClique(4)}, Options{}); err == nil {
		t.Error("mixed sizes accepted")
	}
	if _, err := CompileMulti([]*pattern.Pattern{pattern.Triangle(), pattern.KClique(3)}, Options{}); err == nil {
		t.Error("isomorphic duplicates accepted")
	}
	if _, err := CompileMulti(nil, Options{}); err == nil {
		t.Error("empty set accepted")
	}
}

func TestCompileRejectsBadPatterns(t *testing.T) {
	disc := pattern.New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	if _, err := Compile(disc, Options{}); err == nil {
		t.Error("disconnected pattern accepted")
	}
	if _, err := Compile(pattern.New(1), Options{}); err == nil {
		t.Error("single vertex accepted")
	}
	if _, err := CompileCliqueDAG(1); err == nil {
		t.Error("1-clique DAG accepted")
	}
}

func TestCountDivisors(t *testing.T) {
	sym, _ := Compile(pattern.FourCycle(), Options{})
	if sym.CountDivisor[0] != 1 {
		t.Errorf("symmetric divisor = %d", sym.CountDivisor[0])
	}
	nosym, _ := Compile(pattern.FourCycle(), Options{NoSymmetry: true})
	if nosym.CountDivisor[0] != 8 {
		t.Errorf("no-symmetry 4-cycle divisor = %d want 8", nosym.CountDivisor[0])
	}
}

func TestValidateCatchesCorruptPlans(t *testing.T) {
	pl, _ := Compile(pattern.Triangle(), Options{})
	bad := *pl
	bad.Root = &Node{Op: VertexOp{Level: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("bad root level accepted")
	}
	pl2, _ := Compile(pattern.Triangle(), Options{})
	pl2.Root.Children[0].Op.Extender = 5
	if err := pl2.Validate(); err == nil {
		t.Error("out-of-range extender accepted")
	}
}

func TestIRStringFormat(t *testing.T) {
	pl, err := Compile(pattern.FourCycle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := pl.String()
	for _, want := range []string{"vertex:", "embedding:", "pruneBy", "v0.N", "emb0 := v0", "matches 4-cycle", "cmap-insert(<v0)"} {
		if !strings.Contains(s, want) {
			t.Errorf("IR dump missing %q:\n%s", want, s)
		}
	}
	multi, err := CompileMulti([]*pattern.Pattern{pattern.Diamond(), pattern.TailedTriangle()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := multi.String()
	if !strings.Contains(ms, "matches diamond") || !strings.Contains(ms, "matches tailed-triangle") {
		t.Errorf("multi-pattern dump incomplete:\n%s", ms)
	}
}

func TestLessMatrixTransitivity(t *testing.T) {
	pl, _ := Compile(pattern.KClique(4), Options{})
	// K4 chain: emb3 < emb2 < emb1 < emb0, so Less(3,0) must hold.
	if !pl.Less(3, 0) || !pl.Less(3, 2) || !pl.Less(1, 0) {
		t.Error("transitive closure incomplete")
	}
	if pl.Less(0, 3) {
		t.Error("inverted order")
	}
}

func TestChainOnTreeReturnsNil(t *testing.T) {
	pl, _ := CompileMulti([]*pattern.Pattern{pattern.Diamond(), pattern.TailedTriangle()}, Options{})
	if pl.Chain() != nil {
		t.Error("Chain() on branching plan should be nil")
	}
}

func TestMotifPlansCoverAllMotifs(t *testing.T) {
	for k := 3; k <= 4; k++ {
		pl, err := CompileMotifs(k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.Patterns) != len(pattern.Motifs(k)) {
			t.Errorf("%d-MC plan has %d patterns", k, len(pl.Patterns))
		}
		if !pl.Induced {
			t.Error("motif plan not induced")
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("%d-MC plan invalid: %v", k, err)
		}
	}
}
