package setops

// Correctness and speedup coverage for the input-aware kernels (Seeker-based
// galloping, c-map mask scans, count-only variants). Every kernel must be
// bit-identical to the merge reference; the benchmarks document the skewed
// (|a|/|b| ≤ 1/32) regime where the adaptive engine switches away from
// merging.

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSeekerAscendingPass(t *testing.T) {
	b := make([]VID, 0, 500)
	for i := 0; i < 500; i++ {
		b = append(b, VID(3*i+1))
	}
	var s Seeker
	for x := VID(0); x < 1600; x++ {
		want := Index(b, x) >= 0
		if got := s.Seek(b, x); got != want {
			t.Fatalf("Seek(%d) = %v, want %v", x, got, want)
		}
	}
	// Past the end: stays false without panicking.
	if s.Seek(b, 5000) {
		t.Error("Seek past end returned true")
	}
	s.Reset()
	if !s.Seek(b, 1) {
		t.Error("Seek(1) after Reset = false")
	}
}

// TestSeekerProbesSublinear: an ascending pass over the whole large set must
// cost far fewer probes than |a| independent Contains brackets would.
func TestSeekerProbesSublinear(t *testing.T) {
	big := make([]VID, 1<<16)
	for i := range big {
		big[i] = VID(i)
	}
	a := make([]VID, 256)
	for i := range a {
		a[i] = VID(i * 256) // evenly spread: gaps of 256, log(gap) ≈ 8
	}
	var stateful, stateless Seeker
	for _, x := range a {
		stateful.Seek(big, x)
		stateless.Reset() // re-bracket from 0: the old Contains pattern
		stateless.Seek(big, x)
	}
	// The cursor pays O(log gap) per key versus O(log position) re-bracketing
	// from zero; on this spread it must be a clear constant factor cheaper.
	if stateful.Probes*4 >= stateless.Probes*3 {
		t.Errorf("cursor probes = %d, not sublinear vs stateless %d", stateful.Probes, stateless.Probes)
	}
}

func TestGallopingKernelsMatchMerge(t *testing.T) {
	f := func(a, b sortedSet, rawBound uint32) bool {
		bound := VID(rawBound % 64)
		if rawBound%5 == 0 {
			bound = NoBound
		}
		gi, _ := IntersectGallopingCost(nil, a, b, bound)
		gd, _ := DifferenceGallopingCost(nil, a, b, bound)
		ci, _ := IntersectGallopingCount(a, b, bound)
		cd, _ := DifferenceGallopingCount(a, b, bound)
		mi := list(IntersectCost(nil, a, b, bound))
		md := list(DifferenceCost(nil, a, b, bound))
		return equalSets(gi, mi) && equalSets(gd, md) &&
			ci == int64(len(mi)) && cd == int64(len(md))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDifferenceCountMatchesMaterialized(t *testing.T) {
	f := func(a, b sortedSet, rawBound uint32) bool {
		bound := VID(rawBound % 64)
		if rawBound%3 == 0 {
			bound = NoBound
		}
		return count(DifferenceCountCost(a, b, bound)) == int64(len(list(DifferenceCost(nil, a, b, bound))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// toBitmap densifies a sorted set for IntersectBitmap.
func toBitmap(b []VID) []uint64 {
	var n VID
	if len(b) > 0 {
		n = b[len(b)-1] + 1
	}
	bm := make([]uint64, BitmapWords(int(n)))
	for _, x := range b {
		bm[x>>6] |= 1 << (x & 63)
	}
	return bm
}

func TestBitmapKernelsMatchMerge(t *testing.T) {
	f := func(a, b sortedSet, rawBound uint32) bool {
		bound := VID(rawBound % 64)
		if rawBound%5 == 0 {
			bound = NoBound
		}
		bm := toBitmap(b)
		bi, _ := IntersectBitmap(nil, a, bm, bound)
		return equalSets(bi, list(IntersectCost(nil, a, b, bound)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// maskCase builds the connectivity map of up to eight ancestor sets — set k
// owns bit k; role 1 makes it needed, 2 avoided, anything else inserted but
// not asked about — and the merge-built reference of scanning a against it:
// a ∩ every needed set ∖ every avoided one.
func maskCase(a []VID, sets [][]VID, roles []int) (cm []uint8, need, avoid uint8, want []VID) {
	size := VID(0)
	for _, set := range append([][]VID{a}, sets...) {
		if len(set) > 0 && set[len(set)-1] >= size {
			size = set[len(set)-1] + 1
		}
	}
	cm = make([]uint8, size)
	want = append([]VID{}, a...)
	for k, set := range sets {
		for _, x := range set {
			cm[x] |= 1 << k
		}
		switch roles[k] {
		case 1:
			need |= 1 << k
			want = Intersect(nil, want, set)
		case 2:
			avoid |= 1 << k
			want = Difference(nil, want, set)
		}
	}
	return cm, need, avoid, want
}

func TestMaskKernelsMatchMerge(t *testing.T) {
	f := func(a sortedSet, sets [8]sortedSet, rawRoles [8]uint8) bool {
		anc, roles := make([][]VID, 8), make([]int, 8)
		for k := range anc {
			anc[k], roles[k] = sets[k], int(rawRoles[k]%3)
		}
		cm, need, avoid, want := maskCase(a, anc, roles)
		return equalSets(MaskScan(nil, a, cm, need, avoid), want) &&
			MaskCount(a, cm, need, avoid) == int64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// No mask at all keeps everything; the bits of unasked levels never matter.
	a := []VID{0, 2, 5}
	cm := []uint8{0xff, 0, 0, 0, 0, 0x10}
	if got := MaskScan(nil, a, cm, 0, 0); !equalSets(got, a) || MaskCount(a, cm, 0, 0) != 3 {
		t.Errorf("empty mask kept %v of %v", got, a)
	}
}

// TestMaskCountPair holds the one-pass count under two masks to two MaskCount
// calls on one c-map — the masks drawn independently, so they share bits, clash
// (one needs what the other avoids) or coincide — on the drawn row and on the
// empty one. It also checks the halves of the packed count apart on a row every
// element of which passes both masks, and pins the limit the packing relies on.
func TestMaskCountPair(t *testing.T) {
	f := func(a sortedSet, sets [8]sortedSet, rawA, rawB [8]uint8) bool {
		anc, ra, rb := make([][]VID, 8), make([]int, 8), make([]int, 8)
		for k := range anc {
			anc[k], ra[k], rb[k] = sets[k], int(rawA[k]%3), int(rawB[k]%3)
		}
		cm, needA, avoidA, _ := maskCase(a, anc, ra)
		_, needB, avoidB, _ := maskCase(a, anc, rb)
		for _, row := range [][]VID{a, nil} {
			na, nb := MaskCountPair(row, cm, needA, avoidA, needB, avoidB)
			if na != MaskCount(row, cm, needA, avoidA) || nb != MaskCount(row, cm, needB, avoidB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	row, cm := make([]VID, 1<<16), make([]uint8, 1<<16)
	for i := range row {
		row[i], cm[i] = VID(i), 0b101
	}
	if na, nb := MaskCountPair(row, cm, 0b001, 0b010, 0b101, 0); na != 1<<16 || nb != 1<<16 {
		t.Errorf("every element passes both masks: counts %d and %d, want %d each", na, nb, 1<<16)
	}
	if na, nb := MaskCountPair(row, cm, 0b010, 0, 0b100, 0); na != 0 || nb != 1<<16 {
		t.Errorf("every element passes B only: counts %d and %d, want 0 and %d", na, nb, 1<<16)
	}
	// A's half holds at most len(a) < 2³² as long as no row of distinct VIDs below
	// NoBound has 2³² elements — as long as a VID is 32 bits wide.
	if uint64(NoBound) >= 1<<32 {
		t.Errorf("NoBound is %d: a row can reach 2³² elements and A's count would carry into B's", uint64(NoBound))
	}
}

// TestMaskSumPair holds the weighted pass to a sum over MaskScan's output, under
// two masks drawn as TestMaskCountPair draws them, with weights drawn per vertex —
// up to 2³²−1, so that a sum leaves 32 bits — on the drawn row and the empty one.
func TestMaskSumPair(t *testing.T) {
	f := func(a sortedSet, sets [8]sortedSet, rawA, rawB [8]uint8, seed uint32) bool {
		anc, ra, rb := make([][]VID, 8), make([]int, 8), make([]int, 8)
		for k := range anc {
			anc[k], ra[k], rb[k] = sets[k], int(rawA[k]%3), int(rawB[k]%3)
		}
		cm, needA, avoidA, _ := maskCase(a, anc, ra)
		_, needB, avoidB, _ := maskCase(a, anc, rb)
		w := make([]uint32, len(cm))
		for i := range w {
			w[i] = seed * uint32(2*i+1)
		}
		sum := func(row []VID, need, avoid uint8) (s int64) {
			for _, x := range MaskScan(nil, row, cm, need, avoid) {
				s += int64(w[x])
			}
			return s
		}
		for _, row := range [][]VID{a, nil} {
			sa, sb := MaskSumPair(row, cm, w, needA, avoidA, needB, avoidB)
			if sa != sum(row, needA, avoidA) || sb != sum(row, needB, avoidB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// skewedInputs builds a skewed intersection workload: |a|/|b| = 1/ratio with
// |b| = n, a random-ish but deterministic overlap.
func skewedInputs(n, ratio int) (a, b []VID) {
	r := rand.New(rand.NewSource(42))
	b = make([]VID, n)
	for i := range b {
		b[i] = VID(2 * i)
	}
	seen := map[VID]bool{}
	a = make([]VID, 0, n/ratio)
	for len(a) < n/ratio {
		x := VID(r.Intn(2 * n))
		if !seen[x] {
			seen[x] = true
			a = append(a, x)
		}
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	return a, b
}

// The skewed pair: |a|/|b| = 1/64 ≤ 1/32, the regime where the adaptive
// engine picks galloping. BENCH_setops.json records merge-vs-gallop here.
func BenchmarkIntersectSkewedMerge(b *testing.B) {
	a, big := skewedInputs(1<<14, 64)
	dst := make([]VID, 0, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], a, big)
	}
}

func BenchmarkIntersectSkewedGalloping(b *testing.B) {
	a, big := skewedInputs(1<<14, 64)
	dst := make([]VID, 0, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = IntersectGallopingCost(dst[:0], a, big, NoBound)
	}
}

func BenchmarkIntersectSkewedCountOnly(b *testing.B) {
	a, big := skewedInputs(1<<14, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectGallopingCount(a, big, NoBound)
	}
}
