// Package setops implements the sorted-set operations that dominate GPM
// runtime (§III): intersection, difference and their counting and bounded
// variants. The paper's SIU (set intersection unit) and SDU (set difference
// unit) execute one merge-loop iteration per cycle (Fig 9); the instrumented
// merge variants here report that iteration count so the simulator can charge
// exact SIU/SDU cycles.
//
// Alongside the merge kernels, the package provides the input-aware software
// kernels CPU frameworks use — galloping (exponential search) intersection/
// difference for skewed operand sizes, and mask scans against a
// direct-indexed connectivity map (the c-map as a software kernel) — all
// computing bit-identical results.
// The simulator never uses these: accelerator cycle accounting is defined on
// the merge model only (see DESIGN.md "Software kernels vs SIU/SDU").
//
// All inputs must be ascending sorted unique vertex-ID slices, as produced by
// the graph package.
package setops

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// VID aliases the graph vertex ID type.
type VID = graph.VID

// NoBound disables the ID upper bound of the kernels that take one.
const NoBound = ^VID(0)

// Intersect appends a ∩ b to dst and returns it.
func Intersect(dst, a, b []VID) []VID {
	dst, _ = IntersectCost(dst, a, b, NoBound)
	return dst
}

// IntersectCost appends {x ∈ a ∩ b : x < bound} to dst and returns it with the
// number of merge-loop iterations executed (= SIU cycles).
func IntersectCost(dst, a, b []VID, bound VID) ([]VID, int64) {
	i, j := 0, 0
	var iters int64
	for i < len(a) && j < len(b) {
		iters++
		x, y := a[i], b[j]
		if x >= bound || y >= bound {
			break
		}
		switch {
		case x == y:
			dst = append(dst, x)
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return dst, iters
}

// IntersectCount returns |a ∩ b| without materializing the result.
func IntersectCount(a, b []VID, bound VID) int64 {
	n, _ := IntersectCountCost(a, b, bound)
	return n
}

// IntersectCountCost returns |{x ∈ a ∩ b : x < bound}| and merge iterations.
func IntersectCountCost(a, b []VID, bound VID) (int64, int64) {
	i, j := 0, 0
	var n, iters int64
	for i < len(a) && j < len(b) {
		iters++
		x, y := a[i], b[j]
		if x >= bound || y >= bound {
			break
		}
		switch {
		case x == y:
			n++
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return n, iters
}

// Difference appends a \ b to dst and returns it.
func Difference(dst, a, b []VID) []VID {
	dst, _ = DifferenceCost(dst, a, b, NoBound)
	return dst
}

// DifferenceCost appends {x ∈ a \ b : x < bound} to dst and returns it with the
// merge-loop iterations executed (= SDU cycles).
func DifferenceCost(dst, a, b []VID, bound VID) ([]VID, int64) {
	i, j := 0, 0
	var iters int64
	for i < len(a) {
		iters++
		x := a[i]
		if x >= bound {
			break
		}
		if j >= len(b) || x < b[j] {
			dst = append(dst, x)
			i++
			continue
		}
		if x == b[j] {
			i++
			j++
			continue
		}
		j++
	}
	return dst, iters
}

// DifferenceCountCost returns |{x ∈ a \ b : x < bound}| and the merge
// iterations, without materializing.
func DifferenceCountCost(a, b []VID, bound VID) (int64, int64) {
	i, j := 0, 0
	var n, iters int64
	for i < len(a) {
		iters++
		x := a[i]
		if x >= bound {
			break
		}
		if j >= len(b) || x < b[j] {
			n++
			i++
			continue
		}
		if x == b[j] {
			i++
			j++
			continue
		}
		j++
	}
	return n, iters
}

// Seeker is a stateful galloping cursor over one sorted set. Unlike repeated
// Index calls — which re-bracket from index 0 and cost O(log|b|) each — a
// Seeker remembers where the previous key landed, so a pass of ascending keys
// costs O(log gap) per key: the galloping kernels below are
// O(|a|·log(|b|/|a|)) instead of O(|a|·log|b|).
//
// Keys passed to Seek must be non-decreasing across calls for a given set
// (Reset between sets); Probes accumulates element comparisons, the CPU-cost
// proxy reported as Stats.GallopProbes by the engine.
type Seeker struct {
	pos    int
	Probes int64
}

// Reset rewinds the cursor for a fresh ascending pass.
func (s *Seeker) Reset() { s.pos = 0 }

// Seek advances the cursor to the first element ≥ x and reports whether that
// element equals x.
func (s *Seeker) Seek(a []VID, x VID) bool {
	n := len(a)
	lo := s.pos
	if lo >= n {
		return false
	}
	// Gallop forward from the cursor to bracket x.
	hi := n
	step := 1
	for lo+step < n && a[lo+step] < x {
		s.Probes++
		lo += step
		step <<= 1
	}
	if lo+step < n {
		s.Probes++ // the comparison that stopped the gallop
		hi = lo + step + 1
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		s.Probes++
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.pos = lo
	return lo < n && a[lo] == x
}

// IntersectGalloping intersects a small set a against a much larger set b by
// galloping lookups; used by the CPU engine when len(a) << len(b).
func IntersectGalloping(dst, a, b []VID, bound VID) []VID {
	dst, _ = IntersectGallopingCost(dst, a, b, bound)
	return dst
}

// IntersectGallopingCost is IntersectGalloping instrumented with the number
// of element comparisons (gallop probes) executed.
func IntersectGallopingCost(dst, a, b []VID, bound VID) ([]VID, int64) {
	var s Seeker
	for _, x := range a {
		if x >= bound {
			break
		}
		if s.Seek(b, x) {
			dst = append(dst, x)
		}
	}
	return dst, s.Probes
}

// IntersectGallopingCount returns |{x ∈ a ∩ b : x < bound}| and gallop probes
// without materializing the result.
func IntersectGallopingCount(a, b []VID, bound VID) (int64, int64) {
	var s Seeker
	var n int64
	for _, x := range a {
		if x >= bound {
			break
		}
		if s.Seek(b, x) {
			n++
		}
	}
	return n, s.Probes
}

// DifferenceGallopingCost appends {x ∈ a \ b : x < bound} to dst via galloping
// lookups into b, for len(a) << len(b), and returns it with the gallop probes.
func DifferenceGallopingCost(dst, a, b []VID, bound VID) ([]VID, int64) {
	var s Seeker
	for _, x := range a {
		if x >= bound {
			break
		}
		if !s.Seek(b, x) {
			dst = append(dst, x)
		}
	}
	return dst, s.Probes
}

// DifferenceGallopingCount returns |{x ∈ a \ b : x < bound}| and gallop
// probes without materializing the result.
func DifferenceGallopingCount(a, b []VID, bound VID) (int64, int64) {
	var s Seeker
	var n int64
	for _, x := range a {
		if x >= bound {
			break
		}
		if !s.Seek(b, x) {
			n++
		}
	}
	return n, s.Probes
}

// BitmapWords returns the number of uint64 words a dense vertex bitmap needs
// to cover IDs < n.
//
// Retired — delete with benchmark round two (ROADMAP 1f): only
// benchmark/micro.go sizes a bitmap with it, for IntersectBitmap below.
func BitmapWords(n int) int { return (n + 63) / 64 }

// IntersectBitmap appends {x ∈ a : x < bound, bm[x]} to dst, where bm is a
// dense bitmap indexed by vertex ID (out-of-range IDs read as absent). The
// second result is the probe count.
//
// Retired — delete with benchmark round two (ROADMAP 1f): the hub-bitmap
// kernels went with the index they probed (DESIGN decision 8) and the engine
// never calls this one; benchmark/micro.go still times it for
// setops.bitmap_ns_per_elem, so it stays, held to the merge reference by this
// package's unit, fuzz and zero-alloc tests.
func IntersectBitmap(dst, a []VID, bm []uint64, bound VID) ([]VID, int64) {
	var probes int64
	for _, x := range a {
		if x >= bound {
			break
		}
		probes++
		if w := int(x >> 6); w < len(bm) && bm[w]>>(x&63)&1 != 0 {
			dst = append(dst, x)
		}
	}
	return dst, probes
}

// MaskScan appends {x ∈ a : cm[x]&(need|avoid) == need} to dst. cm is a
// direct-indexed connectivity map — the paper's c-map (§VI) in its vector
// form, one byte per vertex, bit L set iff the vertex is adjacent to the
// level-L ancestor — so one byte probe per element settles a whole chain of
// intersections (need) and differences (avoid) at once. The caller applies
// the ID bound (Bounded); every element of a must index cm.
//
// The loop stores every element and advances the write position only past the
// ones that pass, so there is no data-dependent branch to mispredict; dst is
// grown by len(a) up front when its capacity falls short.
func MaskScan(dst, a []VID, cm []uint8, need, avoid uint8) []VID {
	mask := need | avoid
	n := len(dst)
	dst = slices.Grow(dst, len(a))[:n+len(a)]
	for _, x := range a {
		dst[n] = x
		if cm[x]&mask == need {
			n++
		}
	}
	return dst[:n]
}

// MaskCount is MaskScan without materialization.
func MaskCount(a []VID, cm []uint8, need, avoid uint8) int64 {
	mask := need | avoid
	var n int64
	for _, x := range a {
		if cm[x]&mask == need {
			n++
		}
	}
	return n
}

// MaskCountBelow is MaskCount of Bounded(a, bound) in one pass: it stops at the first
// element ≥ bound instead of searching for it, and returns besides the count how many
// elements it passed, k = len(Bounded(a, bound)).
func MaskCountBelow(a []VID, cm []uint8, need, avoid uint8, bound VID) (n int64, k int) {
	mask := need | avoid
	for k, x := range a {
		if x >= bound {
			return n, k
		}
		if cm[x]&mask == need {
			n++
		}
	}
	return n, len(a)
}

// MaskCountPair is MaskCount under two masks in one pass over a: how many elements
// pass (needA, avoidA), and how many pass (needB, avoidB). The two counts share one
// uint64, A's in the low 32 bits, so that each element adds a flag pair and no branch
// depends on the data; len(a) must stay below 2³² for A's half never to carry into
// B's — every adjacency row does, its elements being distinct VIDs below NoBound.
func MaskCountPair(a []VID, cm []uint8, needA, avoidA, needB, avoidB uint8) (na, nb int64) {
	ma, mb := needA|avoidA, needB|avoidB
	var n uint64
	for _, x := range a {
		c := cm[x]
		var p uint64
		if c&ma == needA {
			p = 1
		}
		if c&mb == needB {
			p |= 1 << 32
		}
		n += p
	}
	return int64(uint32(n)), int64(n >> 32)
}

// MaskSumPair is MaskCountPair weighted by w: Σ w[x] over the elements x of a
// that pass (needA, avoidA), and over those that pass (needB, avoidB). Like the
// counting kernels it adds a masked weight per element instead of branching.
func MaskSumPair(a []VID, cm []uint8, w []uint32, needA, avoidA, needB, avoidB uint8) (sa, sb int64) {
	ma, mb := needA|avoidA, needB|avoidB
	for _, x := range a {
		c, k := cm[x], int64(w[x])
		var fa, fb int64
		if c&ma == needA {
			fa = 1
		}
		if c&mb == needB {
			fb = 1
		}
		sa += k & -fa
		sb += k & -fb
	}
	return sa, sb
}

// The word kernels of the engine's local rows (DESIGN.md decision 21): a set
// over a renumbered universe is one bit per position, so an intersection is a
// word AND, a difference an AND-NOT and a count a popcount — of a last level,
// without the AND's write (WordsAndCount, decision 25).

// WordsAnd intersects dst with b in place — subtracts b when not is set. b
// holds at least len(dst) words.
func WordsAnd(dst, b []uint64, not bool) {
	var flip uint64
	if not {
		flip = ^flip
	}
	for i, x := range b[:len(dst)] {
		dst[i] &= x ^ flip
	}
}

// WordsTrim clears every bit of a at position end or above — an ID bound is a
// position where the universe keeps ID order — and returns how many stay set.
func WordsTrim(a []uint64, end int) (n int64) {
	if w := end >> 6; w < len(a) {
		a[w] &= 1<<(end&63) - 1
		clear(a[w+1:])
	}
	for _, x := range a[:min((end+63)>>6, len(a))] {
		n += int64(bits.OnesCount64(x))
	}
	return n
}

// WordsAndCount is WordsAnd then WordsTrim with nothing written: how many bits
// of a ∧ b lie below position end. b holds at least len(a) words.
func WordsAndCount(a, b []uint64, end int) (n int64) {
	w := min(end>>6, len(a))
	b = b[:len(a)]
	for i, x := range a[:w] {
		n += int64(bits.OnesCount64(x & b[i]))
	}
	if w < len(a) {
		n += int64(bits.OnesCount64(a[w] & b[w] & (1<<(end&63) - 1)))
	}
	return n
}

// Index returns the position of x in the sorted slice a, or -1 when absent:
// gallop from the front to bracket x, then binary-search the bracket. The
// engine keys per-vertex scratch (auxiliary-graph row slots) by adjacency
// position with it.
func Index(a []VID, x VID) int {
	lo, hi := 0, len(a)
	step := 1
	for lo+step < hi && a[lo+step] < x {
		lo += step
		step <<= 1
	}
	if lo+step < hi {
		hi = lo + step + 1
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a) && a[lo] == x {
		return lo
	}
	return -1
}

// Bounded returns the prefix of a with elements < bound (a is sorted).
func Bounded(a []VID, bound VID) []VID {
	if bound == NoBound {
		return a
	}
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return a[:lo]
}
