package cmap

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func sortedList(r *rand.Rand, n, space int) []graph.VID {
	seen := map[graph.VID]bool{}
	var out []graph.VID
	for i := 0; i < n; i++ {
		v := graph.VID(r.Intn(space))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestHashMapBasics exercises insert/lookup/remove on a single level.
func TestHashMapBasics(t *testing.T) {
	m := NewHashMap(64, 4)
	adj := []graph.VID{3, 7, 11, 42}
	if !m.TryInsertLevel(adj, 1, NoBound) {
		t.Fatal("insert rejected")
	}
	for _, v := range adj {
		if m.Lookup(v) != 1<<1 {
			t.Errorf("Lookup(%d) = %b, want bit 1", v, m.Lookup(v))
		}
	}
	if m.Lookup(5) != 0 {
		t.Error("absent key has bits")
	}
	m.RemoveLevel(adj, 1, NoBound)
	for _, v := range adj {
		if m.Lookup(v) != 0 {
			t.Errorf("after remove, Lookup(%d) = %b", v, m.Lookup(v))
		}
	}
	if m.Occupancy() != 0 {
		t.Errorf("occupancy %d after full removal", m.Occupancy())
	}
}

// TestHashMapBoundFilter: only IDs below the bound are inserted (§VI-B).
func TestHashMapBoundFilter(t *testing.T) {
	m := NewHashMap(64, 4)
	adj := []graph.VID{1, 5, 9, 13, 17}
	if !m.TryInsertLevel(adj, 0, 10) {
		t.Fatal("insert rejected")
	}
	for _, v := range adj {
		want := Bits(0)
		if v < 10 {
			want = 1
		}
		if m.Lookup(v) != want {
			t.Errorf("Lookup(%d) = %b want %b", v, m.Lookup(v), want)
		}
	}
	m.RemoveLevel(adj, 0, 10)
	if m.Occupancy() != 0 {
		t.Errorf("occupancy %d", m.Occupancy())
	}
}

// TestHashMapOverflowEstimate: the occupancy estimate must reject bulk
// inserts that would exceed the threshold, leaving the map untouched.
func TestHashMapOverflowEstimate(t *testing.T) {
	m := NewHashMap(16, 4) // 75% threshold = 12 entries
	small := []graph.VID{1, 2, 3}
	if !m.TryInsertLevel(small, 0, NoBound) {
		t.Fatal("small insert rejected")
	}
	big := make([]graph.VID, 11)
	for i := range big {
		big[i] = graph.VID(100 + i)
	}
	if m.TryInsertLevel(big, 1, NoBound) {
		t.Fatal("oversized insert accepted")
	}
	if m.Stats().Overflows == 0 {
		t.Error("overflow not counted")
	}
	for _, v := range big {
		if m.Lookup(v) != 0 {
			t.Errorf("rejected insert leaked key %d", v)
		}
	}
	// The earlier level must be intact.
	for _, v := range small {
		if m.Lookup(v) != 1 {
			t.Errorf("level-0 key %d lost", v)
		}
	}
}

// TestHashMapSharedKeysAcrossLevels: a key inserted at two levels keeps the
// other level's bit when one is removed (the '011' example of Fig 12).
func TestHashMapSharedKeysAcrossLevels(t *testing.T) {
	m := NewHashMap(64, 4)
	m.TryInsertLevel([]graph.VID{4, 5, 6}, 0, NoBound)
	m.TryInsertLevel([]graph.VID{5, 6, 7}, 1, NoBound)
	if got := m.Lookup(5); got != 0b11 {
		t.Errorf("Lookup(5) = %b want 11", got)
	}
	m.RemoveLevel([]graph.VID{5, 6, 7}, 1, NoBound)
	if got := m.Lookup(5); got != 0b01 {
		t.Errorf("after remove, Lookup(5) = %b want 01", got)
	}
}

// TestHashMapAgainstVectorOracle drives both implementations through random
// stack-disciplined workloads (the only access pattern GPM generates, §VI-A)
// and demands identical lookup results throughout.
func TestHashMapAgainstVectorOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const space = 256
		hm := NewHashMap(1024, 4)
		vec := NewVector(space)

		type frame struct {
			adj   []graph.VID
			depth int
			bound graph.VID
			inHM  bool
		}
		var stack []frame
		for step := 0; step < 300; step++ {
			switch {
			case len(stack) > 0 && r.Intn(3) == 0: // pop
				fr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if fr.inHM {
					hm.RemoveLevel(fr.adj, fr.depth, fr.bound)
				}
				vec.RemoveLevel(fr.adj, fr.depth, fr.bound)
			case len(stack) < 8: // push
				fr := frame{
					adj:   sortedList(r, r.Intn(30), space),
					depth: len(stack),
					bound: NoBound,
				}
				if r.Intn(2) == 0 {
					fr.bound = graph.VID(r.Intn(space))
				}
				fr.inHM = hm.TryInsertLevel(fr.adj, fr.depth, fr.bound)
				vec.TryInsertLevel(fr.adj, fr.depth, fr.bound)
				stack = append(stack, fr)
			}
			// Compare lookups over inserted-at-HM levels: levels the hash
			// map rejected are tracked by the caller (the engine falls back
			// to set ops), so mask them out of the oracle's answer.
			var hmMask Bits
			for _, fr := range stack {
				if fr.inHM {
					hmMask |= 1 << uint(fr.depth)
				}
			}
			for probe := 0; probe < 20; probe++ {
				key := graph.VID(r.Intn(space))
				if hm.Lookup(key) != vec.Lookup(key)&hmMask {
					return false
				}
			}
		}
		// Unwind everything; the map must end empty.
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if fr.inHM {
				hm.RemoveLevel(fr.adj, fr.depth, fr.bound)
			}
		}
		return hm.Occupancy() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHashMapProbeChainsSurviveBulkRemoval reproduces the §VI-A subtlety:
// keys colliding into one probe chain, removed in insertion order, must all
// be found (deletion probes skip holes opened within the same bulk).
func TestHashMapProbeChainsSurviveBulkRemoval(t *testing.T) {
	m := NewHashMap(8, 1)
	// Fill most of a tiny single-bank table so chains interleave heavily.
	adj := []graph.VID{1, 2, 3, 4, 5}
	if !m.TryInsertLevel(adj, 0, NoBound) {
		t.Fatal("insert rejected")
	}
	m.RemoveLevel(adj, 0, NoBound)
	if m.Occupancy() != 0 {
		t.Fatalf("stale entries after bulk removal: occupancy=%d", m.Occupancy())
	}
	for _, v := range adj {
		if m.Lookup(v) != 0 {
			t.Errorf("stale bits for %d", v)
		}
	}
}

// TestHashMapReset clears everything.
func TestHashMapReset(t *testing.T) {
	m := NewHashMap(32, 4)
	m.TryInsertLevel([]graph.VID{1, 2, 3}, 2, NoBound)
	m.Reset()
	if m.Occupancy() != 0 || m.Lookup(2) != 0 {
		t.Error("Reset left state behind")
	}
}

// TestHashMapReadRatio sanity-checks the §VII-C metric.
func TestHashMapReadRatio(t *testing.T) {
	m := NewHashMap(64, 4)
	m.TryInsertLevel([]graph.VID{1, 2}, 0, NoBound) // 2 writes
	for i := 0; i < 18; i++ {
		m.Lookup(graph.VID(i))
	}
	rr := m.Stats().ReadRatio()
	if rr < 0.89 || rr > 0.91 { // 18 reads / 20 accesses
		t.Errorf("read ratio %.3f want 0.90", rr)
	}
}

// TestNewHashMapBytes checks the 5-byte-per-entry sizing of §VI-A.
func TestNewHashMapBytes(t *testing.T) {
	m := NewHashMapBytes(10<<10, 4) // the paper's 2K-entry prototype
	if m.Capacity() != 2048 {
		t.Errorf("capacity %d want 2048", m.Capacity())
	}
}

func BenchmarkHashMapInsertRemove(b *testing.B) {
	m := NewHashMapBytes(8<<10, 4)
	adj := make([]graph.VID, 64)
	for i := range adj {
		adj[i] = graph.VID(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TryInsertLevel(adj, 1, NoBound)
		m.RemoveLevel(adj, 1, NoBound)
	}
}

func BenchmarkHashMapLookup(b *testing.B) {
	m := NewHashMapBytes(8<<10, 4)
	adj := make([]graph.VID, 512)
	for i := range adj {
		adj[i] = graph.VID(i * 3)
	}
	m.TryInsertLevel(adj, 1, NoBound)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(graph.VID(i % 2048))
	}
}

// TestMapZeroAlloc holds the c-map's zero-allocation invariant for every
// implementation of Map, driven through the interface the simulator's PE
// uses: a level insert (bounded, unbounded, and one the hash map rejects for
// overflow), hit and miss lookups, a filter into a sized destination, and the
// stack-ordered removals all work in the storage the constructor sized.
func TestMapZeroAlloc(t *testing.T) {
	small := []graph.VID{3, 9, 17, 40, 41, 90}
	other := []graph.VID{9, 12, 41, 77}
	var big []graph.VID // 60 keys: past the 48-entry overflow threshold below
	for v := graph.VID(100); v < 160; v++ {
		big = append(big, v)
	}
	probe := []graph.VID{9, 41, 77, 90, 5}
	dst := make([]graph.VID, 0, len(probe))
	for _, tc := range []struct {
		name    string
		m       Map
		bigFits bool
	}{
		{"HashMap", NewHashMap(64, 4), false},
		{"Vector", NewVector(256), true},
	} {
		m := tc.m
		var bits Bits
		var kept []graph.VID
		round := func() {
			if !m.TryInsertLevel(small, 1, 50) || !m.TryInsertLevel(other, 2, NoBound) {
				t.Fatalf("%s: small level rejected", tc.name)
			}
			if m.TryInsertLevel(big, 3, NoBound) != tc.bigFits {
				t.Fatalf("%s: overflow estimate disagrees with capacity", tc.name)
			} else if tc.bigFits {
				m.RemoveLevel(big, 3, NoBound)
			}
			for _, k := range probe {
				bits |= m.Lookup(k)
			}
			kept, _ = m.Filter(dst[:0], probe, 1<<2, 1<<1)
			m.RemoveLevel(other, 2, NoBound)
			m.RemoveLevel(small, 1, 50)
		}
		round() // warm
		if avg := testing.AllocsPerRun(10, round); avg > 0 {
			t.Errorf("%s allocates %.1f times per insert/lookup/filter/remove round; want 0", tc.name, avg)
		}
		if bits != 1<<1|1<<2 || m.Lookup(9) != 0 {
			t.Errorf("%s: lookups saw bits %b, leftover %b; want levels 1 and 2, then empty", tc.name, bits, m.Lookup(9))
		}
		if !reflect.DeepEqual(kept, []graph.VID{77}) { // level 2 without level 1: 9 and 41 have both
			t.Errorf("%s: Filter kept %v; want [77]", tc.name, kept)
		}
	}
}

// TestStatsAddAggregatesEveryField is the stats-completeness check
// (core.Stats.add has the same test): a counter added to Stats without
// extending Add would drop out of every multi-PE total. Reflection fills each
// field with a distinct value, so a field added tomorrow is swept in.
func TestStatsAddAggregatesEveryField(t *testing.T) {
	var delta, sum Stats
	dv := reflect.ValueOf(&delta).Elem()
	for i := 0; i < dv.NumField(); i++ {
		if dv.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %s; teach this test how Add merges it", dv.Type().Field(i).Name, dv.Field(i).Kind())
		}
		dv.Field(i).SetInt(int64(i + 1))
	}
	sum.Add(delta)
	sum.Add(delta)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), 2*dv.Field(i).Int(); got != want {
			t.Errorf("Stats.Add dropped or mis-merged %s: got %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}

// TestHashMapCyclesShiftEqualsDivision: a power-of-two bank count charges its
// probe cycles by a shift, any other by the division — the same ⌊i/banks⌋ + 1.
func TestHashMapCyclesShiftEqualsDivision(t *testing.T) {
	for banks := 1; banks <= 9; banks++ {
		m := NewHashMap(64, banks)
		if pow2 := banks&(banks-1) == 0; pow2 != (m.shift >= 0) {
			t.Errorf("banks=%d: shift %d", banks, m.shift)
		}
		for i := 0; i < 64; i++ {
			if got, want := m.cycles(i), int64(i/banks)+1; got != want {
				t.Errorf("banks=%d: cycles(%d) = %d, want %d", banks, i, got, want)
			}
		}
	}
}
