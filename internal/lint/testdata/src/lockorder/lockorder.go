// Package lockorderfix seeds lock-ordering violations for the lockorder
// analyzer tests: an A→B / B→A cycle through callee summaries, a
// holds-at-return split-helper cycle, a recursive self-deadlock, and the
// clean release-then-reacquire shape of sched's steal sweep — plus the
// non-deferred Unlock/RUnlock shapes on struct-field mutexes.
package lockorderfix

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

var ga a
var gb b

// abPath and baPath acquire the two mutexes in opposite orders through
// helpers — the classic cross-path deadlock lockorder exists to catch.
func abPath() {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	lockB() // want `acquiring lockorder\.b\.mu while holding lockorder\.a\.mu`
}

func lockB() {
	gb.mu.Lock()
	defer gb.mu.Unlock()
}

func baPath() {
	gb.mu.Lock()
	defer gb.mu.Unlock()
	lockA() // want `acquiring lockorder\.a\.mu while holding lockorder\.b\.mu`
}

func lockA() {
	ga.mu.Lock()
	defer ga.mu.Unlock()
}

// node.chain recurses while holding its own mutex identity: two goroutines
// walking overlapping chains from opposite ends deadlock.
type node struct {
	mu   sync.Mutex
	next *node
}

func (n *node) chain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.next != nil {
		n.next.chain() // want `already held`
	}
}

// c/d exercise the holds-at-return summary: acquireC leaks its lock to the
// caller, so cdPath's direct gd acquisition nests under c.mu, and dcPath
// closes the cycle with inline non-deferred unlocks.
type c struct{ mu sync.Mutex }
type d struct{ mu sync.Mutex }

var gc c
var gd d

func acquireC() { gc.mu.Lock() }

func releaseC() {
	gc.mu.Unlock() // want `Unlock of lockorder\.c\.mu outside defer`
}

func cdPath() {
	acquireC()
	gd.mu.Lock()   // want `acquiring lockorder\.d\.mu while holding lockorder\.c\.mu`
	gd.mu.Unlock() // want `Unlock of lockorder\.d\.mu outside defer`
	releaseC()
}

func dcPath() {
	gd.mu.Lock()
	defer gd.mu.Unlock()
	gc.mu.Lock()   // want `acquiring lockorder\.c\.mu while holding lockorder\.d\.mu`
	gc.mu.Unlock() // want `Unlock of lockorder\.c\.mu outside defer`
}

// mixed shows the non-deferred Unlock diagnostic on a package-level mutex;
// the release is tracked, so the following helper call creates no edge.
var mixed sync.Mutex

func releaseEarly() {
	mixed.Lock()
	mixed.Unlock() // want `Unlock of lockorder\.mixed outside defer`
	lockA()
}

// dq mirrors sched's deque: take releases dq.mu at return (deferred), so
// move's sequential take/put — the steal sweep shape — forms no self-edge.
type dq struct {
	mu sync.Mutex
	ts []int
}

func (q *dq) take() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ts) == 0 {
		return 0, false
	}
	t := q.ts[len(q.ts)-1]
	q.ts = q.ts[:len(q.ts)-1]
	return t, true
}

func (q *dq) put(x int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ts = append(q.ts, x)
}

// pushLeaky holds the lock across an append without defer: a panic in the
// critical section (append can grow) leaks it.
func (q *dq) pushLeaky(x int) {
	q.mu.Lock()
	q.ts = append(q.ts, x)
	q.mu.Unlock() // want `Unlock of lockorder\.dq\.mu outside defer`
}

// rw exercises the read side: RUnlock follows the same rule.
type rw struct {
	mu sync.RWMutex
	n  int
}

func (r *rw) read() int {
	r.mu.RLock()
	n := r.n
	r.mu.RUnlock() // want `RUnlock of lockorder\.rw\.mu outside defer`
	return n
}

func (r *rw) readOK() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

func move(src, dst *dq) {
	if x, ok := src.take(); ok {
		dst.put(x)
	}
}

// spawnClean: a goroutine's acquisitions are concurrent with the spawner's
// held set, not nested under it — no a→b edge forms here.
func spawnClean(wg *sync.WaitGroup) {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		lockB()
	}()
}
