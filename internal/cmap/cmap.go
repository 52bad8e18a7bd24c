// Package cmap implements the connectivity map of §VI: a key-value store
// mapping a data-vertex ID to a bitset of embedding depths it is connected
// to. Two implementations are provided:
//
//   - HashMap: the paper's hardware design — a banked, simplified
//     linear-probing hash table whose deletions just invalidate entries
//     (correct because GPM updates it in a bulk, stack-disciplined fashion,
//     §VI-A) with occupancy-based overflow signaling (§VI-B);
//   - Vector: the |V|-sized software c-map of prior work [15, 21], kept for
//     comparison and as a test oracle.
package cmap

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/setops"
)

// Bits is the connectivity bitset: bit d set means "connected to the vertex
// at embedding depth d". The paper's hardware uses one byte; we widen to 16
// to allow patterns past 10 vertices in software experiments.
type Bits uint16

// Stats counts c-map activity for the evaluation (read ratios in §VII-C,
// overflow rates).
type Stats struct {
	Lookups   int64 // queries
	Hits      int64 // queries that found the key
	Inserts   int64 // entries inserted or updated
	Removes   int64 // entries removed or downgraded
	Probes    int64 // hardware probe steps (bank-parallel groups)
	Overflows int64 // bulk insertions rejected by the occupancy estimate
}

// Add accumulates another stats block into s (per-worker / per-PE merge).
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Inserts += o.Inserts
	s.Removes += o.Removes
	s.Probes += o.Probes
	s.Overflows += o.Overflows
}

// ReadRatio returns reads / (reads + writes), the metric of §VII-C.
func (s Stats) ReadRatio() float64 {
	total := s.Lookups + s.Inserts + s.Removes
	if total == 0 {
		return 0
	}
	return float64(s.Lookups) / float64(total)
}

// Map is the interface shared by the hardware model and the vector oracle.
// It has no reset: a PE empties its map by removing levels in stack order,
// so the map is empty again when a task's last level is removed.
type Map interface {
	// TryInsertLevel bulk-inserts neighbor list adj at depth, keeping only
	// IDs < bound (NoBound disables filtering). It reports false — without
	// inserting anything — when the occupancy estimate predicts overflow
	// (§VI-B fallback).
	TryInsertLevel(adj []graph.VID, depth int, bound graph.VID) bool
	// RemoveLevel undoes TryInsertLevel for the same arguments (stack
	// discipline: depths are removed in reverse insertion order).
	RemoveLevel(adj []graph.VID, depth int, bound graph.VID)
	// Lookup returns the connectivity bitset for key (zero if absent).
	Lookup(key graph.VID) Bits
	// Filter is the pruner over a whole candidate list: it appends to dst,
	// in order, the keys whose bitset holds every bit of need and none of
	// avoid, and returns it with the cycles the lookups took — Σ max(probe
	// steps, 1), what the cycle model charges per pruned candidate. Stats
	// count one lookup per key, exactly as a loop of Lookup calls would.
	Filter(dst, keys []graph.VID, need, avoid Bits) ([]graph.VID, int64)
	// Stats returns accumulated counters.
	Stats() Stats
}

// NoBound disables the insertion ID filter.
const NoBound = setops.NoBound

// EntryBytes is the storage cost per entry in the paper's design: 4-byte key
// plus 1-byte value.
const EntryBytes = 5

// HashMap is the hardware c-map: linear probing over a fixed array of
// entries, partitioned into banks probed in parallel (m successive entries
// per cycle). Deletion invalidates in place; see §VI-A for why that is
// correct under bulk stack-disciplined updates.
type HashMap struct {
	keys []graph.VID
	vals []Bits

	banks     int
	shift     int     // log2(banks) where banks is a power of two, else -1: cycles divides
	threshold float64 // max occupancy fraction before overflow is signaled
	occupied  int
	stats     Stats
}

// NewHashMap builds a hardware c-map with the given entry capacity and bank
// count. The paper's prototype is 2K entries (4 banks × 512 lines × 5 B);
// occupancy is kept below 75%.
func NewHashMap(entries, banks int) *HashMap {
	if entries <= 0 || banks <= 0 {
		panic(fmt.Sprintf("cmap: bad geometry entries=%d banks=%d", entries, banks))
	}
	m := &HashMap{
		keys:      make([]graph.VID, entries),
		vals:      make([]Bits, entries),
		banks:     banks,
		shift:     -1,
		threshold: 0.75,
	}
	if banks&(banks-1) == 0 {
		m.shift = bits.TrailingZeros(uint(banks))
	}
	return m
}

// NewHashMapBytes sizes the c-map from a byte budget at EntryBytes per entry
// — the way the paper quotes sizes (1 kB … 16 kB scratchpads, Fig 14).
func NewHashMapBytes(bytes, banks int) *HashMap {
	entries := bytes / EntryBytes
	if entries < 1 {
		entries = 1
	}
	return NewHashMap(entries, banks)
}

// Capacity returns the entry count.
func (m *HashMap) Capacity() int { return len(m.keys) }

// Occupancy returns the live-entry count.
func (m *HashMap) Occupancy() int { return m.occupied }

// hash is key's home slot in a table of n entries, n hoisted by the walk that asks.
func hash(key graph.VID, n int) int {
	// Multiplicative hashing (Knuth); cheap in hardware, good spread.
	h := uint64(key) * 0x9e3779b97f4a7c15
	return int(h % uint64(n))
}

// probe walks the table from key's home slot. It returns the slot holding
// key, or the first invalid slot, or -1 when the table wrapped around full.
// The probe-step count charged to stats models the banked hardware: each
// cycle examines `banks` successive entries.
func (m *HashMap) probe(key graph.VID) int {
	n := len(m.keys)
	slot := hash(key, n)
	for i := 0; i < n; i++ {
		if m.vals[slot] == 0 || m.keys[slot] == key {
			m.stats.Probes += m.cycles(i)
			return slot
		}
		if slot++; slot == n {
			slot = 0
		}
	}
	m.stats.Probes += m.cycles(n - 1)
	return -1
}

// cycles is the probe steps of a walk that stopped i entries past the home slot,
// `banks` entries a cycle — a shift for the power-of-two bank counts every
// configuration uses, the walks' only division otherwise: they step the slot by
// increment-and-wrap, which is most of the simulator's host time per probe.
func (m *HashMap) cycles(i int) int64 {
	if m.shift >= 0 {
		return int64(i>>m.shift) + 1
	}
	return int64(i/m.banks) + 1
}

// TryInsertLevel implements Map. The footprint estimate is the paper's: the
// degree (after the compiler's ID-bound filter) is known before the list is
// fetched, so the PE can predict overflow and fall back to SIU/SDU without
// touching the map.
func (m *HashMap) TryInsertLevel(adj []graph.VID, depth int, bound graph.VID) bool {
	filtered := setops.Bounded(adj, bound)
	if float64(m.occupied+len(filtered)) > m.threshold*float64(len(m.keys)) {
		m.stats.Overflows++
		return false
	}
	bit := Bits(1) << uint(depth)
	for i, w := range filtered {
		slot := m.probe(w)
		if slot < 0 {
			// Estimation said it fits but the table is full (can only
			// happen with threshold ≥ 1 in stress tests): undo exactly
			// the keys inserted so far.
			m.stats.Inserts += int64(i)
			m.removeKeys(filtered[:i], bit)
			m.stats.Overflows++
			return false
		}
		// The probed slot is empty or already holds w, so storing w is
		// right either way, and only an empty slot adds to the occupancy.
		m.occupied += b2i(m.vals[slot] == 0)
		m.keys[slot] = w
		m.vals[slot] |= bit
	}
	m.stats.Inserts += int64(len(filtered))
	return true
}

// RemoveLevel implements Map: clear this depth's bit on every inserted key
// and invalidate entries whose value drops to zero.
func (m *HashMap) RemoveLevel(adj []graph.VID, depth int, bound graph.VID) {
	m.removeKeys(setops.Bounded(adj, bound), Bits(1)<<uint(depth))
}

func (m *HashMap) removeKeys(keys []graph.VID, bit Bits) {
	for _, w := range keys {
		slot := m.findForDelete(w)
		if slot < 0 {
			continue
		}
		// A live entry without this depth's bit stays as it is: it neither
		// counts as a removal nor drops to zero.
		b := m.vals[slot]
		m.stats.Removes += int64(b2i(b&bit != 0))
		b &^= bit
		m.vals[slot] = b
		m.occupied -= b2i(b == 0)
	}
}

// findForDelete probes for an existing key. Unlike Lookup it continues past
// invalidated slots: a bulk removal invalidates entries whose probe chains
// interleave, so holes opened earlier in the same bulk must be skipped
// (§VI-A — "we never delete a key that does not exist in the map, thus the
// deletion operation will always find the entry").
func (m *HashMap) findForDelete(key graph.VID) int {
	n := len(m.keys)
	slot := hash(key, n)
	for i := 0; i < n; i++ {
		if m.vals[slot] != 0 && m.keys[slot] == key {
			m.stats.Probes += m.cycles(i)
			return slot
		}
		if slot++; slot == n {
			slot = 0
		}
	}
	m.stats.Probes += m.cycles(n - 1)
	return -1
}

// findExisting is the lookup probe: it terminates at the first invalid slot.
// Remaining probe chains stay intact across stack-disciplined bulk removals
// (later-inserted entries are always removed first), so lookups never need
// to skip holes.
func (m *HashMap) findExisting(key graph.VID) (slot int, steps int64) {
	n := len(m.keys)
	slot = hash(key, n)
	for i := 0; i < n; i++ {
		if m.vals[slot] == 0 {
			return -1, m.cycles(i)
		}
		if m.keys[slot] == key {
			return slot, m.cycles(i)
		}
		if slot++; slot == n {
			slot = 0
		}
	}
	return -1, m.cycles(n - 1)
}

// Lookup implements Map.
func (m *HashMap) Lookup(key graph.VID) Bits {
	m.stats.Lookups++
	slot, steps := m.findExisting(key)
	m.stats.Probes += steps
	if slot < 0 {
		return 0
	}
	m.stats.Hits++
	return m.vals[slot]
}

// Filter implements Map. Almost every query ends at its home slot (empty, or
// holding the key) in one probe step, so that case is decided inline and only
// a collision walks the chain. Like setops.MaskScan, the loop decides by
// arithmetic, not by branch: it stores every key and advances the write
// position and the hit count by flags computed as integers, and whether the
// home slot is live folds into the one collision test. (b&need)^need is the
// need bits b lacks, so a key survives when neither that nor b&avoid has a bit.
func (m *HashMap) Filter(dst, keys []graph.VID, need, avoid Bits) ([]graph.VID, int64) {
	n := len(m.keys)
	w := len(dst)
	dst = slices.Grow(dst, len(keys))[:w+len(keys)]
	var hits, cycles int64
	for _, key := range keys {
		slot := hash(key, n)
		b, steps := m.vals[slot], int64(1)
		if b2i(b != 0)&b2i(m.keys[slot] != key) != 0 {
			if slot, steps = m.findExisting(key); slot < 0 {
				b = 0
			} else {
				b = m.vals[slot]
			}
		}
		cycles += steps
		hits += live(b)
		dst[w] = key
		w += b2i(b&need^need|b&avoid == 0)
	}
	m.stats.Lookups += int64(len(keys))
	m.stats.Hits += hits
	m.stats.Probes += cycles
	return dst[:w], cycles
}

// live is 1 when b is non-zero and 0 otherwise, by arithmetic: b | -b has
// its top bit set exactly when b has any bit set.
func live(b Bits) int64 {
	x := uint32(b)
	return int64((x | -x) >> 31)
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set,
// not a branch.
func b2i(c bool) int {
	var i int
	if c {
		i = 1
	}
	return i
}

// Reset invalidates all entries ("when a task is completed, all entries in
// c-map are invalidated").
func (m *HashMap) Reset() {
	for i := range m.vals {
		m.vals[i] = 0
	}
	m.occupied = 0
}

// Stats implements Map.
func (m *HashMap) Stats() Stats { return m.stats }

// Vector is the dense software c-map of prior work: one byte per graph
// vertex. Constant-time accesses, but |V| space per worker and poor cache
// behavior (§VI) — the motivation for the hardware hash map.
type Vector struct {
	vals  []Bits
	stats Stats
}

// NewVector builds a vector c-map for an n-vertex graph.
func NewVector(n int) *Vector { return &Vector{vals: make([]Bits, n)} }

// TryInsertLevel implements Map; the vector never overflows.
func (v *Vector) TryInsertLevel(adj []graph.VID, depth int, bound graph.VID) bool {
	bit := Bits(1) << uint(depth)
	for _, w := range setops.Bounded(adj, bound) {
		v.vals[w] |= bit
		v.stats.Inserts++
	}
	return true
}

// RemoveLevel implements Map.
func (v *Vector) RemoveLevel(adj []graph.VID, depth int, bound graph.VID) {
	bit := Bits(1) << uint(depth)
	for _, w := range setops.Bounded(adj, bound) {
		v.vals[w] &^= bit
		v.stats.Removes++
	}
}

// Lookup implements Map.
func (v *Vector) Lookup(key graph.VID) Bits {
	v.stats.Lookups++
	b := v.vals[key]
	if b != 0 {
		v.stats.Hits++
	}
	return b
}

// Filter implements Map with HashMap.Filter's loop; a vector access probes
// nothing, so each key costs the one access cycle.
func (v *Vector) Filter(dst, keys []graph.VID, need, avoid Bits) ([]graph.VID, int64) {
	w := len(dst)
	dst = slices.Grow(dst, len(keys))[:w+len(keys)]
	var hits int64
	for _, key := range keys {
		b := v.vals[key]
		hits += live(b)
		dst[w] = key
		w += b2i(b&need^need|b&avoid == 0)
	}
	v.stats.Lookups += int64(len(keys))
	v.stats.Hits += hits
	return dst[:w], int64(len(keys))
}

// Stats implements Map.
func (v *Vector) Stats() Stats { return v.stats }
