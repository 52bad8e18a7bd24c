package cmap

// Filter is the simulator's pruner: one call per candidate list instead of one
// Lookup per candidate. These tests hold it to that loop of lookups on both
// implementations — the same survivors in the same order, cycles equal to
// Σ max(probe steps, 1), and the same Stats deltas — over seeded scripts of
// level inserts and bulk removals in tiny tables. CI fuzzes the script seed
// and geometry for a few seconds; a longer local run is
// `go test -run '^$' -fuzz '^FuzzFilter$' ./internal/cmap`.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// filterCoverage counts the table states a script reached, so a test can
// require that the interesting ones occurred at all.
type filterCoverage struct {
	chains    int // lookups that walked past their home slot
	wraps     int // hits found below their home slot: the chain wrapped
	full      int // checks made with every slot of the table occupied
	overflows int // level inserts the hash map rejected
	holes     int // removals of a level that was not the last inserted
}

// lookupFilter is Filter's reference: a loop of single-key lookups, charging
// each one max(its probe steps, 1) cycles.
func lookupFilter(m Map, keys []graph.VID, need, avoid Bits, cov *filterCoverage) ([]graph.VID, int64) {
	var kept []graph.VID
	var cycles int64
	for _, k := range keys {
		probes := m.Stats().Probes
		b := m.Lookup(k)
		steps := m.Stats().Probes - probes
		cycles += max(steps, 1)
		if hm, ok := m.(*HashMap); ok {
			if i := hm.findSteps(k); i > 0 {
				cov.chains++
				if hash(k, len(hm.keys))+i >= len(hm.keys) {
					cov.wraps++
				}
			}
		}
		if b&need == need && b&avoid == 0 {
			kept = append(kept, k)
		}
	}
	return kept, cycles
}

// findSteps is how many slots past its home slot a lookup of key stops.
func (m *HashMap) findSteps(key graph.VID) int {
	n := len(m.keys)
	home := hash(key, n)
	for i := 0; i < n; i++ {
		slot := (home + i) % n
		if m.vals[slot] == 0 || m.keys[slot] == key {
			return i
		}
	}
	return n - 1
}

func statsDelta(after, before Stats) Stats {
	return Stats{
		Lookups:   after.Lookups - before.Lookups,
		Hits:      after.Hits - before.Hits,
		Inserts:   after.Inserts - before.Inserts,
		Removes:   after.Removes - before.Removes,
		Probes:    after.Probes - before.Probes,
		Overflows: after.Overflows - before.Overflows,
	}
}

// checkFilter runs the reference and Filter over the same keys and reports
// any difference. Filter appends after a sentinel, which must survive.
func checkFilter(t *testing.T, name string, m Map, keys []graph.VID, need, avoid Bits, cov *filterCoverage) {
	t.Helper()
	s0 := m.Stats()
	want, wantCycles := lookupFilter(m, keys, need, avoid, cov)
	s1 := m.Stats()
	const sentinel = graph.VID(1 << 30)
	got, cycles := m.Filter([]graph.VID{sentinel}, keys, need, avoid)
	s2 := m.Stats()
	if got[0] != sentinel || !slices.Equal(got[1:], want) {
		t.Fatalf("%s: Filter(%v, need %b, avoid %b) = %v; lookups keep %v after the sentinel", name, keys, need, avoid, got, want)
	}
	if cycles != wantCycles {
		t.Fatalf("%s: Filter(%v) charged %d cycles; lookups %d", name, keys, cycles, wantCycles)
	}
	if d, w := statsDelta(s2, s1), statsDelta(s1, s0); d != w {
		t.Fatalf("%s: Filter(%v) moved Stats by %+v; lookups by %+v", name, keys, d, w)
	}
}

// filterScript drives a HashMap of the given geometry and a Vector through one
// seeded sequence of level inserts and removals — mostly in stack order, now
// and then a lower level first, which leaves holes inside probe chains — and
// checks Filter against lookups on both after every step, and the hash map's
// Occupancy against the live slots it holds. With full set the
// hash map's occupancy threshold is lifted past its capacity, so the table
// fills, chains wrap, a walk can go all the way round, and an insert can run
// out of slots mid-list and undo itself.
func filterScript(t *testing.T, seed int64, entries, banks int, full bool, cov *filterCoverage) {
	t.Helper()
	const space = 48
	r := rand.New(rand.NewSource(seed))
	hm := NewHashMap(entries, banks)
	if full {
		hm.threshold = 2
	}
	maps := []Map{hm, NewVector(space)}
	type level struct {
		adj   []graph.VID
		depth int
		bound graph.VID
		in    [2]bool // inserted into maps[i]
	}
	var stack []level
	var used Bits
	for step := 0; step < 30; step++ {
		if len(stack) > 0 && (r.Intn(3) == 0 || used == 0xff) {
			i := len(stack) - 1
			if r.Intn(3) == 0 {
				i = r.Intn(len(stack))
			}
			if i != len(stack)-1 {
				cov.holes++
			}
			l := stack[i]
			stack = append(stack[:i], stack[i+1:]...)
			used &^= 1 << uint(l.depth)
			for j, m := range maps {
				if l.in[j] {
					m.RemoveLevel(l.adj, l.depth, l.bound)
				}
			}
		} else {
			l := level{adj: sortedList(r, 1+r.Intn(entries+4), space), bound: NoBound}
			for used&(1<<uint(l.depth)) != 0 {
				l.depth++
			}
			if r.Intn(3) == 0 {
				l.bound = graph.VID(r.Intn(space))
			}
			used |= 1 << uint(l.depth)
			for j, m := range maps {
				l.in[j] = m.TryInsertLevel(l.adj, l.depth, l.bound)
			}
			if !l.in[0] {
				cov.overflows++
			}
			stack = append(stack, l)
		}
		held := 0
		for _, b := range hm.vals {
			if b != 0 {
				held++
			}
		}
		if hm.Occupancy() != held {
			t.Fatalf("step %d: Occupancy() = %d; the table holds %d live entries", step, hm.Occupancy(), held)
		}
		if hm.Occupancy() == hm.Capacity() {
			cov.full++
		}
		keys := make([]graph.VID, r.Intn(2*entries+4))
		for i := range keys {
			keys[i] = graph.VID(r.Intn(space))
		}
		need := Bits(r.Intn(256)) & used
		if r.Intn(2) == 0 {
			need &= -need // a single level, the common pruner query
		}
		avoid := Bits(r.Intn(256)) & used &^ need
		checkFilter(t, "HashMap", hm, keys, need, avoid, cov)
		checkFilter(t, "Vector", maps[1], keys, need, avoid, cov)
	}
}

// TestFilterMatchesLookups sweeps tiny tables over banks 1–9, with and
// without the occupancy estimate, and requires the scripts to have reached
// every state Filter special-cases or could get wrong.
func TestFilterMatchesLookups(t *testing.T) {
	var cov filterCoverage
	for banks := 1; banks <= 9; banks++ {
		for _, entries := range []int{1, 2, 3, 5, 8, 13, 64} {
			for _, full := range []bool{false, true} {
				for seed := int64(0); seed < 3; seed++ {
					filterScript(t, seed*131+int64(entries*10+banks), entries, banks, full, &cov)
				}
			}
		}
	}
	if cov.chains == 0 || cov.wraps == 0 || cov.full == 0 || cov.overflows == 0 || cov.holes == 0 {
		t.Errorf("the scripts missed a table state: %+v", cov)
	}
}

func FuzzFilter(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), true)
	f.Add(int64(7), uint8(13), uint8(3), false)
	f.Add(int64(42), uint8(2), uint8(9), true)
	f.Fuzz(func(t *testing.T, seed int64, entries, banks uint8, full bool) {
		var cov filterCoverage
		filterScript(t, seed, 1+int(entries%64), 1+int(banks%9), full, &cov)
	})
}

// filterSink keeps BenchmarkFilter's survivors live.
var filterSink []graph.VID

// BenchmarkFilter is the pruner's per-layer number, in ns per filtered key: the
// default geometry (8 kB, 4 banks: 1,638 entries) holding one 300-key level,
// queried in turn with 16 lists of 1,500 keys drawn from five times the level's
// ID range, so about one key in five hits — the simulator's SL-4cycle ratio —
// and no branch predictor learns the lists.
func BenchmarkFilter(b *testing.B) {
	const level, spread, n, lists = 300, 5, 1500, 16
	m := NewHashMapBytes(8<<10, 4)
	adj := make([]graph.VID, level)
	for i := range adj {
		adj[i] = graph.VID(spread * i)
	}
	if !m.TryInsertLevel(adj, 1, NoBound) {
		b.Fatal("level rejected")
	}
	r := rand.New(rand.NewSource(1))
	keys := make([][]graph.VID, lists)
	for i := range keys {
		keys[i] = make([]graph.VID, n)
		for j := range keys[i] {
			keys[i][j] = graph.VID(r.Intn(spread * level))
		}
	}
	dst := make([]graph.VID, 0, n)
	s0 := m.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filterSink, _ = m.Filter(dst[:0], keys[i%lists], 1<<1, 0)
	}
	b.StopTimer()
	s := statsDelta(m.Stats(), s0)
	if hit := float64(s.Hits) / float64(s.Lookups); hit < 0.15 || hit > 0.25 {
		b.Fatalf("hit ratio %.2f; the benchmark wants about 0.2", hit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
}
