// Package noallocfix seeds violations of every noalloc rule — heap
// composites, growing appends, interface boxing, string copies, escaping
// closures, goroutine spawns, unproven callees — next to the clean pooled
// shapes the production hot path uses (caller-owned dst, field scratch
// buffers, direct-called step closures).
package noallocfix

// handler exists so a closure has somewhere to escape to.
var handler func()

// helper is deliberately un-annotated: calling it from a noalloc context is
// a violation even though its body happens to be empty.
func helper() {}

// sink is annotated and takes an interface: the call is allowed, the boxing
// at each call site is not.
//
//flexlint:noalloc
func sink(v any) { _ = v }

// pool mirrors worker's pooled scratch buffers.
type pool struct{ buf []int }

// gather appends into caller-owned dst: growth is the caller's budget.
//
//flexlint:noalloc
func (p *pool) gather(dst, xs []int) []int {
	dst = dst[:0]
	for _, x := range xs {
		if x > 0 {
			dst = append(dst, x)
		}
	}
	return dst
}

// fill appends into the pooled field buffer.
//
//flexlint:noalloc
func (p *pool) fill(xs []int) {
	p.buf = p.buf[:0]
	p.buf = append(p.buf, xs...)
}

// derived appends into a local view of the pooled buffer.
//
//flexlint:noalloc
func (p *pool) derived(xs []int) int {
	out := p.buf[:0]
	out = append(out, xs...)
	return len(out)
}

// steps uses the local-helper idiom: an IIFE and a direct-called local closure,
// both non-escaping.
//
//flexlint:noalloc
func (p *pool) steps(xs []int) int {
	total := func() int { return 0 }()
	step := func(x int) { total += x }
	for _, x := range xs {
		step(x)
	}
	return total
}

//flexlint:noalloc
func allocates(n int) int {
	m := make([]int, n) // want `make allocates`
	q := new(pool)      // want `new allocates`
	xs := []int{1, 2}   // want `slice literal \[\]int allocates`
	h := map[int]int{}  // want `map literal map\[int\]int allocates`
	pp := &pool{}       // want `&noallocfix\.pool literal escapes`
	return len(m) + len(q.buf) + len(xs) + len(h) + len(pp.buf)
}

//flexlint:noalloc
func grows(xs []int) int {
	var buf []int
	for _, x := range xs {
		buf = append(buf, x) // want `append grows a slice`
	}
	return len(buf)
}

//flexlint:noalloc
func boxes(x int) {
	sink(x) // want `passing int to interface parameter boxes it`
	sink(nil)
}

//flexlint:noalloc
func assignBox(x int) any {
	var v any
	v = x // want `storing int into interface`
	return v
}

//flexlint:noalloc
func retBox(x int) any {
	return x // want `storing int into interface`
}

//flexlint:noalloc
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//flexlint:noalloc
func toStr(b []byte) string {
	return string(b) // want `conversion copies`
}

//flexlint:noalloc
func storeClosure() {
	handler = func() {} // want `closure escapes`
}

//flexlint:noalloc
func spawns() {
	go helper() // want `go statement allocates a goroutine stack`
}

//flexlint:noalloc
func mustPos(x int) {
	if x < 0 {
		panic("neg") // want `panic boxes its argument`
	}
}

//flexlint:noalloc
func callsHelper() {
	helper() // want `neither //flexlint:noalloc nor allowlisted`
}

// ops mirrors worker's function-typed visit field: dynamic calls are only
// legal through an Allow entry.
type ops struct {
	fast   func(int) int
	pinned func(int) int
}

//flexlint:noalloc
func callsField(o *ops) int {
	return o.fast(1) // want `dynamic call through fast`
}

// callsPinned is clean: the test instance allowlists (noallocfix.ops).pinned
// the way production allowlists (core.worker).visit.
//
//flexlint:noalloc
func callsPinned(o *ops) int {
	return o.pinned(1)
}

//flexlint:noalloc
func callsValue(f func() int) int {
	return f() // want `dynamic call through function value f`
}

// kernel is the cmap.Map shape: annotating the interface method obligates
// every implementing type in the package.
type kernel interface {
	//flexlint:noalloc
	apply(xs []int) int
}

type good struct{}

//flexlint:noalloc
func (good) apply(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

type bad struct{}

func (bad) apply(xs []int) int { // want `bad implements kernel\.apply, which is //flexlint:noalloc`
	return len(xs)
}

var _ = []kernel{good{}, bad{}}
