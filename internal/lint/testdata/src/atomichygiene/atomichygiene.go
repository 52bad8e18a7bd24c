// Package atomicfix seeds function-style sync/atomic uses for the
// atomichygiene analyzer tests, mirroring the serve.Progress counter shapes.
package atomicfix

import "sync/atomic"

// counters mirrors a progress block: done is the shape the rule exists to
// forbid — a plain int64 maintained with sync/atomic, which any other site
// can read or write plainly — typed is the sanctioned one.
type counters struct {
	done  int64
	typed atomic.Int64
}

var hits int64

func bump(c *counters) {
	atomic.AddInt64(&c.done, 1) // want `function-style atomic\.AddInt64`
	atomic.AddInt64(&hits, 1)   // want `function-style atomic\.AddInt64`
	c.typed.Add(1)
}

// snapshot is the mixed access itself: nothing to report on the plain read,
// because the atomic side above is already rejected.
func snapshot(c *counters) int64 {
	return c.done + c.typed.Load()
}

// local: a captured local is shared like any field; no exemption.
func local() int64 {
	var next int64
	go func() { atomic.StoreInt64(&next, 1) }() // want `function-style atomic\.StoreInt64`
	return atomic.LoadInt64(&next)              // want `function-style atomic\.LoadInt64`
}

// value: taking the function as a value is the same API.
var cas = atomic.CompareAndSwapInt64 // want `function-style atomic\.CompareAndSwapInt64`
