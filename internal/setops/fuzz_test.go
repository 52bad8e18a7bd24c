package setops

// Fuzz targets cross-check every kernel family against the merge reference:
// the adaptive layer (galloping, c-map scan, count-only) must agree with the
// two-pointer merge on every input, for every bound, or the engine's kernel
// auto-selection silently changes embedding counts. CI runs each target for a
// few seconds as a smoke test; longer local runs use
// `go test -fuzz FuzzIntersectKernels ./internal/setops`.

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"testing"
)

// decodeSets splits raw fuzz bytes into two sorted, deduplicated VID sets
// plus a bound. The value domain is kept small (0..255) so collisions — the
// interesting case for set operations — are common.
func decodeSets(data []byte) (a, b []VID, bound VID) {
	if len(data) == 0 {
		return nil, nil, NoBound
	}
	split := int(data[0])
	data = data[1:]
	if split > len(data) {
		split = len(data)
	}
	mk := func(raw []byte) []VID {
		set := map[VID]bool{}
		for _, v := range raw {
			set[VID(v)] = true
		}
		out := make([]VID, 0, len(set))
		for v := range set {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	a, b = mk(data[:split]), mk(data[split:])
	// Derive a bound from the payload; exercise NoBound and the degenerate
	// bound==0 (nothing survives the filter) alongside ordinary bounds.
	switch {
	case len(data) == 0:
		bound = NoBound
	case data[len(data)-1]%3 == 0:
		bound = NoBound
	case data[len(data)-1]%5 == 0:
		bound = 0
	default:
		bound = VID(data[len(data)-1])
	}
	return a, b, bound
}

// refIntersect, refDifference and equalSets come from setops_test.go, toBitmap
// from kernels_test.go — the fuzz targets share the property tests' helpers.

// wordsOp runs a ∩ b (a ∖ b with not) below bound through the word kernels, over
// the identity renumbering: bit x is vertex x, so the ID bound is the position
// WordsTrim cuts at. It returns the surviving bits as a set, and the count.
func wordsOp(a, b []VID, bound VID, not bool) ([]VID, int64) {
	words := max(len(toBitmap(a)), len(toBitmap(b))) + 1 // one more, for WordsTrim to clear
	dst, wb := append(toBitmap(a), make([]uint64, words)...)[:words], append(toBitmap(b), make([]uint64, words)...)
	dst[words-1] = ^uint64(0)
	WordsAnd(dst[:words-1], wb, not)
	n := WordsTrim(dst, int(min(bound, VID(64*(words-1)))))
	var set []VID
	for k, w := range dst {
		for ; w != 0; w &= w - 1 {
			set = append(set, VID(k<<6+bits.TrailingZeros64(w)))
		}
	}
	return set, n
}

func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 2, 3, 4, 7})
	f.Add([]byte{0, 5, 5, 5})
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, bound := decodeSets(data)
		want := refIntersect(a, b, bound)

		if got := list(IntersectCost(nil, a, b, bound)); !equalSets(got, want) {
			t.Errorf("IntersectCost(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got, _ := IntersectCost(nil, a, b, bound); !equalSets(got, want) {
			t.Errorf("IntersectCost(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got := IntersectCount(a, b, bound); got != int64(len(want)) {
			t.Errorf("IntersectCount(%v, %v, %d) = %d, want %d", a, b, bound, got, len(want))
		}
		if got, _ := IntersectCountCost(a, b, bound); got != int64(len(want)) {
			t.Errorf("IntersectCountCost(%v, %v, %d) = %d, want %d", a, b, bound, got, len(want))
		}
		if got := IntersectGalloping(nil, a, b, bound); !equalSets(got, want) {
			t.Errorf("IntersectGalloping(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got, _ := IntersectGallopingCost(nil, a, b, bound); !equalSets(got, want) {
			t.Errorf("IntersectGallopingCost(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got, _ := IntersectGallopingCount(a, b, bound); got != int64(len(want)) {
			t.Errorf("IntersectGallopingCount(%v, %v, %d) = %d, want %d", a, b, bound, got, len(want))
		}
		if got, _ := IntersectBitmap(nil, a, toBitmap(b), bound); !equalSets(got, want) {
			t.Errorf("IntersectBitmap(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got, n := wordsOp(a, b, bound, false); !equalSets(got, want) || n != int64(len(want)) {
			t.Errorf("WordsAnd+WordsTrim(%v, %v, %d) = %v (count %d), want %v", a, b, bound, got, n, want)
		}
		if bound == NoBound {
			if got := Intersect(nil, a, b); !equalSets(got, want) {
				t.Errorf("Intersect(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	})
}

func FuzzDifferenceKernels(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 2, 3, 4, 7})
	f.Add([]byte{0, 5, 5, 5})
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, bound := decodeSets(data)
		want := refDifference(a, b, bound)

		if got := list(DifferenceCost(nil, a, b, bound)); !equalSets(got, want) {
			t.Errorf("DifferenceCost(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got, _ := DifferenceCost(nil, a, b, bound); !equalSets(got, want) {
			t.Errorf("DifferenceCost(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got := count(DifferenceCountCost(a, b, bound)); got != int64(len(want)) {
			t.Errorf("DifferenceCountCost(%v, %v, %d) = %d, want %d", a, b, bound, got, len(want))
		}
		if got, _ := DifferenceCountCost(a, b, bound); got != int64(len(want)) {
			t.Errorf("DifferenceCountCost(%v, %v, %d) = %d, want %d", a, b, bound, got, len(want))
		}
		if got := list(DifferenceGallopingCost(nil, a, b, bound)); !equalSets(got, want) {
			t.Errorf("DifferenceGallopingCost(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got, _ := DifferenceGallopingCost(nil, a, b, bound); !equalSets(got, want) {
			t.Errorf("DifferenceGallopingCost(%v, %v, %d) = %v, want %v", a, b, bound, got, want)
		}
		if got, _ := DifferenceGallopingCount(a, b, bound); got != int64(len(want)) {
			t.Errorf("DifferenceGallopingCount(%v, %v, %d) = %d, want %d", a, b, bound, got, len(want))
		}
		if got, n := wordsOp(a, b, bound, true); !equalSets(got, want) || n != int64(len(want)) {
			t.Errorf("WordsAnd(not)+WordsTrim(%v, %v, %d) = %v (count %d), want %v", a, b, bound, got, n, want)
		}
		if bound == NoBound {
			if got := Difference(nil, a, b); !equalSets(got, want) {
				t.Errorf("Difference(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	})
}

// FuzzMaskKernels checks the c-map scan kernels: the payload becomes a row and
// four ancestor sets with fuzzer-chosen roles (needed, avoided, inserted but
// unasked), and scanning the row against their connectivity map must equal
// the chained merge Intersect/Difference over the same sets. The scan that stops
// at a bound must count what MaskCount counts of Bounded's prefix and pass exactly
// that prefix, at every bound: none, 0, each element, and one past each — between
// two elements, or above the last.
func FuzzMaskKernels(f *testing.F) {
	f.Add([]byte{0b01_10_01_00, 3, 1, 2, 3, 2, 3, 4, 7, 1, 3, 9, 2, 3})
	f.Add([]byte{0b10_10_10_10, 0, 5, 5, 5})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, data := data[0], data[1:]
		parts, roles := make([][]VID, 5), make([]int, 4)
		for k := range parts {
			lo, hi := k*len(data)/5, (k+1)*len(data)/5
			parts[k], _, _ = decodeSets(append([]byte{255}, data[lo:hi]...))
		}
		for k := range roles {
			roles[k] = int(sel >> (2 * k) & 3)
		}
		a, sets := parts[0], parts[1:]
		cm, need, avoid, want := maskCase(a, sets, roles)
		if got := MaskScan(nil, a, cm, need, avoid); !equalSets(got, want) {
			t.Errorf("MaskScan(%v, sets %v, roles %v) = %v, want %v", a, sets, roles, got, want)
		}
		if got := MaskCount(a, cm, need, avoid); got != int64(len(want)) {
			t.Errorf("MaskCount(%v, sets %v, roles %v) = %d, want %d", a, sets, roles, got, len(want))
		}
		bounds := []VID{NoBound, 0}
		for _, x := range a {
			bounds = append(bounds, x, x+1)
		}
		for _, b := range bounds {
			pre := Bounded(a, b)
			if n, k := MaskCountBelow(a, cm, need, avoid, b); n != MaskCount(pre, cm, need, avoid) || k != len(pre) {
				t.Errorf("MaskCountBelow(%v, sets %v, roles %v, bound %d) = %d, %d; MaskCount of the %d-element prefix %d",
					a, sets, roles, b, n, k, len(pre), MaskCount(pre, cm, need, avoid))
			}
		}
	})
}

// FuzzMaskCountPair checks the one-pass count under two masks against two
// MaskCount calls: the payload's first two bytes give each mask its roles over four
// ancestor sets, the rest becomes the row and the sets as in FuzzMaskKernels —
// empty when the payload is short, masks that share, clash or coincide alike.
func FuzzMaskCountPair(f *testing.F) {
	f.Add([]byte{0b01_10_01_00, 0b01_01_10_00, 3, 1, 2, 3, 2, 3, 4, 7, 1, 3, 9, 2, 3})
	f.Add([]byte{0b01_00_00_01, 0b01_00_00_01, 0, 5, 5, 5, 6, 7})
	f.Add([]byte{0b10, 0b01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		selA, selB, data := data[0], data[1], data[2:]
		parts, ra, rb := make([][]VID, 5), make([]int, 4), make([]int, 4)
		for k := range parts {
			lo, hi := k*len(data)/5, (k+1)*len(data)/5
			parts[k], _, _ = decodeSets(append([]byte{255}, data[lo:hi]...))
		}
		for k := range ra {
			ra[k], rb[k] = int(selA>>(2*k)&3), int(selB>>(2*k)&3)
		}
		a, sets := parts[0], parts[1:]
		cm, needA, avoidA, _ := maskCase(a, sets, ra)
		_, needB, avoidB, _ := maskCase(a, sets, rb)
		na, nb := MaskCountPair(a, cm, needA, avoidA, needB, avoidB)
		if wa, wb := MaskCount(a, cm, needA, avoidA), MaskCount(a, cm, needB, avoidB); na != wa || nb != wb {
			t.Errorf("MaskCountPair(%v, sets %v, roles %v and %v) = %d, %d; MaskCount: %d, %d", a, sets, ra, rb, na, nb, wa, wb)
		}
	})
}

// FuzzWordsAndCount checks the non-writing count of a last local level against
// WordsAnd then WordsTrim on copies (andTrimCount, setops_test.go): the payload's
// first two bytes are the end position, the rest two word sets of equal length,
// empty when the payload is short — ends past the words and inside a word alike.
func FuzzWordsAndCount(f *testing.F) {
	f.Add([]byte{70, 0, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0, 0})
	f.Add([]byte{200, 1, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		end, data := int(data[0])|int(data[1])<<8, data[2:]
		words := len(data) / 16
		a, b := make([]uint64, words), make([]uint64, words)
		for i := range words {
			a[i], b[i] = binary.LittleEndian.Uint64(data[16*i:]), binary.LittleEndian.Uint64(data[16*i+8:])
		}
		a0, b0 := slices.Clone(a), slices.Clone(b)
		if got, want := WordsAndCount(a, b, end), andTrimCount(a, b, end); got != want {
			t.Errorf("WordsAndCount(%x, %x, %d) = %d, WordsAnd+WordsTrim = %d", a, b, end, got, want)
		}
		if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
			t.Errorf("WordsAndCount(%x, %x, %d) wrote an operand", a0, b0, end)
		}
	})
}

// FuzzSeeker checks the stateful galloping cursor against plain binary
// search over an ascending key pass — the contract the galloping kernels
// rely on.
func FuzzSeeker(f *testing.F) {
	f.Add([]byte{4, 1, 3, 5, 7, 0, 3, 6, 9})
	f.Add([]byte{0, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, keys, _ := decodeSets(data) // both halves sorted ascending
		var s Seeker
		for _, x := range keys {
			if got, want := s.Seek(set, x), Index(set, x) >= 0; got != want {
				t.Fatalf("Seek(%v, %d) = %v, want %v (keys %v)", set, x, got, want, keys)
			}
		}
		// A Reset must make the cursor reusable for a fresh pass.
		s.Reset()
		for _, x := range keys {
			if got, want := s.Seek(set, x), Index(set, x) >= 0; got != want {
				t.Fatalf("after Reset: Seek(%v, %d) = %v, want %v", set, x, got, want)
			}
		}
	})
}
