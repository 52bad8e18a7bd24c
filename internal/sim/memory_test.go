package sim

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		good.WithPEs(0),
		func() Config { c := good; c.FreqGHz = 0; return c }(),
		func() Config { c := good; c.LineBytes = 48; return c }(),
		func() Config { c := good; c.PrivateCacheBytes = 0; return c }(),
		func() Config { c := good; c.SharedBanks = 0; return c }(),
		func() Config { c := good; c.DRAMChannels = 0; return c }(),
		func() Config { c := good; c.CMapBytes = -1; return c }(),
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestZeroCMapBanks: a hash c-map needs at least one bank, so Simulate refuses
// CMapBanks 0 with a config error instead of panicking in cmap.NewHashMap; a
// configuration without a hash c-map — none at all, or the unlimited vector —
// never reads the bank count and still runs.
func TestZeroCMapBanks(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, 3)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	noBanks := DefaultConfig().WithPEs(2)
	noBanks.CMapBanks = 0
	if _, err := Simulate(g, pl, noBanks); err == nil || !strings.Contains(err.Error(), "sim: bad config: CMapBanks=0") {
		t.Errorf("hash c-map with 0 banks: err = %v; want a CMapBanks config error", err)
	}
	want, err := Simulate(g, pl, DefaultConfig().WithPEs(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{noBanks.WithCMapBytes(0), noBanks.WithUnlimitedCMap()} {
		got, err := Simulate(g, pl, cfg)
		if err != nil {
			t.Errorf("0 banks, cmap=%d unlimited=%v: %v", cfg.CMapBytes, cfg.CMapUnlimited, err)
		} else if got.Count() != want.Count() {
			t.Errorf("0 banks, cmap=%d unlimited=%v: %d triangles, want %d", cfg.CMapBytes, cfg.CMapUnlimited, got.Count(), want.Count())
		}
	}
}

func TestConfigWithers(t *testing.T) {
	c := DefaultConfig().WithPEs(7).WithCMapBytes(123)
	if c.PEs != 7 || c.CMapBytes != 123 || c.CMapUnlimited {
		t.Errorf("withers broken: %+v", c)
	}
	u := c.WithUnlimitedCMap()
	if !u.CMapUnlimited {
		t.Error("unlimited not set")
	}
	if c.CMapUnlimited {
		t.Error("wither mutated receiver")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := newCache(1024, 4, 64) // 16 lines, 4-way, 4 sets
	if c.access(0) {
		t.Error("cold access hit")
	}
	if !c.access(0) || !c.access(32) {
		t.Error("warm access missed (same line)")
	}
	if c.access(64) {
		t.Error("different line hit")
	}
	if c.hits != 2 || c.misses != 2 {
		t.Errorf("hits=%d misses=%d", c.hits, c.misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(4*64, 4, 64) // one set of 4 ways
	for i := uint64(0); i < 4; i++ {
		c.access(i * 64)
	}
	c.access(0)      // refresh line 0 → MRU
	c.access(4 * 64) // evicts LRU = line 1
	if !c.access(0) {
		t.Error("line 0 evicted despite MRU refresh")
	}
	if c.access(1 * 64) {
		t.Error("line 1 should have been evicted")
	}
}

func TestCacheTinyGeometry(t *testing.T) {
	c := newCache(64, 8, 64) // fewer lines than ways
	if c.sets < 1 || c.ways < 1 {
		t.Errorf("degenerate geometry: %d sets %d ways", c.sets, c.ways)
	}
	c.access(0)
	if !c.access(0) {
		t.Error("single-line cache broken")
	}
}

func TestResourceReservation(t *testing.T) {
	var r resource
	if got := r.reserve(10, 4); got != 10 {
		t.Errorf("idle grant at %d", got)
	}
	if got := r.reserve(11, 4); got != 14 {
		t.Errorf("queued grant at %d, want 14", got)
	}
	if got := r.reserve(100, 4); got != 100 {
		t.Errorf("late grant at %d", got)
	}
	if r.busy != 12 {
		t.Errorf("busy=%d", r.busy)
	}
}

func TestAddressMapLayout(t *testing.T) {
	am := newAddressMap(1000)
	if am.colBase%4096 != 0 {
		t.Error("col array not page aligned")
	}
	if am.rowAddr(10) != 80 {
		t.Errorf("rowAddr(10) = %d", am.rowAddr(10))
	}
	if am.colAddr(0) != am.colBase || am.colAddr(3) != am.colBase+12 {
		t.Error("colAddr arithmetic")
	}
	// Frontier regions must not alias the graph or each other.
	f1 := frontierAddr(0, 1, 0)
	f2 := frontierAddr(1, 1, 0)
	f3 := frontierAddr(0, 2, 0)
	if f1 == f2 || f1 == f3 || f1 < am.colAddr(1<<30) {
		t.Error("frontier region aliasing")
	}
}

func TestBuildTasksSlicing(t *testing.T) {
	g := simGraphs()["er"]
	whole := sched.Expand(g, 0)
	if len(whole) != g.NumVertices() {
		t.Errorf("per-vertex tasks = %d", len(whole))
	}
	sliced := sched.Expand(g, 8)
	if len(sliced) <= len(whole) {
		t.Errorf("slicing produced %d tasks (≤ %d)", len(sliced), len(whole))
	}
	// Coverage: every vertex's full degree must be covered exactly once.
	cover := map[uint32]int{}
	for _, ts := range sliced {
		if !ts.Sliced() {
			cover[ts.V0] += g.Degree(ts.V0) // whole-vertex task
			continue
		}
		cover[ts.V0] += ts.Hi - ts.Lo
		if ts.Hi-ts.Lo > 8 {
			t.Errorf("slice too big: %+v", ts)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > 0 && cover[uint32(v)] != d {
			t.Errorf("vertex %d covered %d of %d", v, cover[uint32(v)], d)
		}
	}
}

// TestSlicedCountsMatchUnsliced: task slicing must not change results.
func TestSlicedCountsMatchUnsliced(t *testing.T) {
	g := simGraphs()["cl"]
	for _, name := range []string{"triangle", "diamond"} {
		pl := mustPlan(t, name)
		a, err := Simulate(g, pl, DefaultConfig().WithPEs(4))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig().WithPEs(4)
		cfg.TaskSliceElems = 16
		b, err := Simulate(g, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Count() != b.Count() {
			t.Errorf("%s: sliced=%d unsliced=%d", name, b.Count(), a.Count())
		}
		if b.Stats.Tasks <= a.Stats.Tasks {
			t.Errorf("%s: slicing did not increase task count", name)
		}
	}
}
