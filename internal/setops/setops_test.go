package setops

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// sortedSet is a quick.Generator producing ascending unique VID slices.
type sortedSet []VID

func (sortedSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size + 1)
	seen := map[VID]bool{}
	out := make(sortedSet, 0, n)
	for i := 0; i < n; i++ {
		v := VID(r.Intn(4 * (size + 1)))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return reflect.ValueOf(out)
}

// reference implementations over maps.
func refIntersect(a, b []VID, bound VID) []VID {
	in := map[VID]bool{}
	for _, x := range b {
		in[x] = true
	}
	out := []VID{}
	for _, x := range a {
		if x < bound && in[x] {
			out = append(out, x)
		}
	}
	return out
}

func refDifference(a, b []VID, bound VID) []VID {
	in := map[VID]bool{}
	for _, x := range b {
		in[x] = true
	}
	out := []VID{}
	for _, x := range a {
		if x < bound && !in[x] {
			out = append(out, x)
		}
	}
	return out
}

func equalSets(a, b []VID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// list and count drop the cost of a kernel's (result, cost) pair.
func list(l []VID, _ int64) []VID { return l }
func count(n, _ int64) int64      { return n }

func TestIntersectMatchesReference(t *testing.T) {
	f := func(a, b sortedSet, rawBound uint32) bool {
		bound := VID(rawBound % 64)
		if rawBound%5 == 0 {
			bound = NoBound
		}
		got := list(IntersectCost(nil, a, b, bound))
		return equalSets(got, refIntersect(a, b, bound))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDifferenceMatchesReference(t *testing.T) {
	f := func(a, b sortedSet, rawBound uint32) bool {
		bound := VID(rawBound % 64)
		if rawBound%5 == 0 {
			bound = NoBound
		}
		got := list(DifferenceCost(nil, a, b, bound))
		return equalSets(got, refDifference(a, b, bound))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntersectCountMatchesMaterialized(t *testing.T) {
	f := func(a, b sortedSet) bool {
		return IntersectCount(a, b, NoBound) == int64(len(Intersect(nil, a, b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestGallopingMatchesMerge(t *testing.T) {
	f := func(a, b sortedSet, rawBound uint32) bool {
		bound := VID(rawBound % 64)
		return equalSets(
			IntersectGalloping(nil, a, b, bound),
			list(IntersectCost(nil, a, b, bound)),
		)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBounded(t *testing.T) {
	a := []VID{1, 4, 9, 16, 25}
	cases := []struct {
		bound VID
		want  int
	}{{0, 0}, {1, 0}, {2, 1}, {9, 2}, {10, 3}, {26, 5}, {NoBound, 5}}
	for _, c := range cases {
		if got := Bounded(a, c.bound); len(got) != c.want {
			t.Errorf("Bounded(%d): len=%d want %d", c.bound, len(got), c.want)
		}
	}
}

// TestMaskCountBelow: the scan that stops at its bound counts what MaskCount counts
// of Bounded's prefix, and passes exactly that prefix — at no bound, below the first
// element, on one, between two and past the last, on a row empty or not.
func TestMaskCountBelow(t *testing.T) {
	a := []VID{1, 4, 9, 16, 25}
	cm := make([]uint8, 26)
	for _, x := range []VID{4, 16, 25} {
		cm[x] = 0b01
	}
	cm[9] = 0b11
	cases := []struct {
		row         []VID
		need, avoid uint8
		bound       VID
		n           int64
		k           int
	}{
		{a, 0b01, 0, NoBound, 4, 5}, {a, 0b01, 0b10, NoBound, 3, 5}, {a, 0, 0, NoBound, 5, 5},
		{a, 0b01, 0, 0, 0, 0}, {a, 0b01, 0, 1, 0, 0}, {a, 0b01, 0, 2, 0, 1},
		{a, 0b01, 0, 9, 1, 2}, {a, 0b01, 0, 10, 2, 3}, {a, 0b01, 0b10, 17, 2, 4}, {a, 0b01, 0, 26, 4, 5},
		{nil, 0b01, 0, NoBound, 0, 0}, {nil, 0, 0, 3, 0, 0},
	}
	for _, c := range cases {
		if n, k := MaskCountBelow(c.row, cm, c.need, c.avoid, c.bound); n != c.n || k != c.k {
			t.Errorf("MaskCountBelow(%v, need %b, avoid %b, bound %d) = %d, %d; want %d, %d", c.row, c.need, c.avoid, c.bound, n, k, c.n, c.k)
		}
	}
}

func TestIndex(t *testing.T) {
	a := []VID{2, 3, 5, 8, 13, 21, 34, 55}
	for i, x := range a {
		if got := Index(a, x); got != i {
			t.Errorf("Index(%d) = %d, want %d", x, got, i)
		}
	}
	for _, x := range []VID{0, 1, 4, 9, 22, 56, 1000} {
		if got := Index(a, x); got != -1 {
			t.Errorf("Index(%d) = %d, want -1", x, got)
		}
	}
	if Index(nil, 1) != -1 {
		t.Error("Index on empty set")
	}
}

// TestIndexAgreesWithLinearScan: Index ≥ 0 exactly when the key is in the set,
// and the returned position holds it.
func TestIndexAgreesWithLinearScan(t *testing.T) {
	f := func(a sortedSet, x VID) bool {
		x %= 64
		if i := Index(a, x); i != -1 {
			return a[i] == x
		}
		return !slices.Contains(a, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestCostAccounting: iteration counts must be positive when work happens and
// bounded by the merge-loop maximum len(a)+len(b).
func TestCostAccounting(t *testing.T) {
	f := func(a, b sortedSet) bool {
		_, iters := IntersectCost(nil, a, b, NoBound)
		if iters < 0 || iters > int64(len(a)+len(b)) {
			return false
		}
		_, diters := DifferenceCost(nil, a, b, NoBound)
		return diters >= 0 && diters <= int64(len(a)+len(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestIntersectEmptyAndDisjoint(t *testing.T) {
	if got := Intersect(nil, nil, []VID{1, 2}); len(got) != 0 {
		t.Errorf("empty ∩ set = %v", got)
	}
	if got := Intersect(nil, []VID{1, 3}, []VID{2, 4}); len(got) != 0 {
		t.Errorf("disjoint intersect = %v", got)
	}
	if got := Difference(nil, []VID{1, 3}, nil); !equalSets(got, []VID{1, 3}) {
		t.Errorf("a \\ empty = %v", got)
	}
}

// andTrimCount is what WordsAndCount must answer: WordsAnd then WordsTrim, on
// copies, so that neither operand is written.
func andTrimCount(a, b []uint64, end int) int64 {
	a = slices.Clone(a)
	WordsAnd(a, b, false)
	return WordsTrim(a, end)
}

// TestWordsAndCount holds the non-writing count to the writing pair at every end
// from 0 past the last word — most not a multiple of 64 — and on empty sets, and
// checks that it writes neither operand.
func TestWordsAndCount(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, words := range []int{0, 1, 2, 3, 16} {
		a, b := make([]uint64, words), make([]uint64, words+1) // b may be longer than a
		for i := range a {
			a[i] = r.Uint64()
		}
		for i := range b {
			b[i] = r.Uint64()
		}
		a0, b0 := slices.Clone(a), slices.Clone(b)
		for end := 0; end <= 64*words+70; end++ {
			if got, want := WordsAndCount(a, b, end), andTrimCount(a, b, end); got != want {
				t.Fatalf("%d words, end %d: WordsAndCount = %d, WordsAnd+WordsTrim = %d", words, end, got, want)
			}
		}
		if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
			t.Fatalf("%d words: WordsAndCount wrote an operand", words)
		}
		if got := WordsAndCount(make([]uint64, words), b, 64*words); got != 0 {
			t.Fatalf("%d words: the empty set ∧ b counts %d", words, got)
		}
	}
}

func BenchmarkIntersectMerge(b *testing.B) {
	a := make([]VID, 1024)
	c := make([]VID, 1024)
	for i := range a {
		a[i] = VID(2 * i)
		c[i] = VID(3 * i)
	}
	dst := make([]VID, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], a, c)
	}
}

func BenchmarkIntersectGalloping(b *testing.B) {
	small := []VID{100, 500, 900, 1300, 1700}
	big := make([]VID, 4096)
	for i := range big {
		big[i] = VID(i)
	}
	dst := make([]VID, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectGalloping(dst[:0], small, big, NoBound)
	}
}

// TestKernelsZeroAlloc holds the set kernels' zero-allocation invariant: with
// a pre-grown destination every kernel, wrapper and search of this package
// appends only into caller-owned memory and never boxes, converts or spawns.
// Every exported function of setops.go but BitmapWords runs inside the
// measured closure; core.TestAuxScratchPooledAllocs and cmap.TestMapZeroAlloc
// hold the same invariant for the engine and the c-map.
func TestKernelsZeroAlloc(t *testing.T) {
	a := make([]VID, 0, 512)
	b := make([]VID, 0, 512)
	for i := 0; i < 512; i++ {
		a = append(a, VID(2*i))
		b = append(b, VID(3*i))
	}
	bm := toBitmap(b)
	cm := make([]uint8, 2048)
	for _, v := range b {
		cm[v] |= 1 << 3
	}
	dst := make([]VID, 0, 512)
	wa, wb := toBitmap(a), toBitmap(b)
	var s Seeker
	var n, c int64
	var hit bool
	if avg := testing.AllocsPerRun(10, func() {
		dst = Intersect(dst[:0], a, b)
		dst, c = IntersectCost(dst[:0], a, b, NoBound)
		dst = Difference(dst[:0], a, b)
		dst, c = DifferenceCost(dst[:0], a, b, NoBound)
		dst = IntersectGalloping(dst[:0], a, b, NoBound)
		dst, c = IntersectGallopingCost(dst[:0], a, b, NoBound)
		dst, c = DifferenceGallopingCost(dst[:0], a, b, NoBound)
		dst, c = IntersectBitmap(dst[:0], a, bm, NoBound)
		n = IntersectCount(a, b, NoBound)
		n, c = IntersectCountCost(a, b, NoBound)
		n, c = DifferenceCountCost(a, b, NoBound)
		n, c = IntersectGallopingCount(a, b, NoBound)
		n, c = DifferenceGallopingCount(a, b, NoBound)
		dst = MaskScan(dst[:0], a, cm, 1<<3, 1<<5)
		n += MaskCount(a, cm, 0, 1<<3)
		n, c = MaskCountPair(a, cm, 1<<3, 0, 0, 1<<3)
		WordsAnd(wa, wb, false)
		WordsAnd(wa, wb, true)
		n += WordsTrim(wa, 700)
		n += WordsAndCount(wa, wb, 700)
		s.Reset()
		hit = s.Seek(b, a[len(a)/2])
		n += int64(Index(a, 300) + len(Bounded(a, 900)))
	}); avg > 0 {
		t.Fatalf("set kernels allocate %.1f times per round; want 0", avg)
	}
	_, _, _ = n, c, hit
}
