package sched

import "sync"

// deque is a mutex-guarded work queue. The owner pops from the front — with
// degree-descending seeding that is heaviest-first — while thieves take the
// lighter back half in one grab, amortizing steal overhead. Tasks are never
// re-enqueued by the owner, so head only advances and the backing slice only
// shrinks (except when a thief deposits a stolen batch into its own deque).
//
// Lock discipline: mu is the only mutex on the mining path
// (graph/sched/serve/core), and it is held only inside the three methods
// below. Each is a leaf — it defers the unlock and calls nothing that can
// lock (append, make, copy) — so nothing else is ever acquired while mu is
// held, and the steal sweep takes two deques' locks one after the other
// (stealTail returns before push locks), never nested. A method added here
// must keep that shape: it is what holds the no-deadlock invariant, with go
// vet's copylocks and the -race stress of this package (DESIGN decision 10).
type deque struct {
	mu   sync.Mutex
	head int
	ts   []Task
}

// push appends a batch (initial dealing, or the thief depositing loot).
func (d *deque) push(ts []Task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ts = append(d.ts, ts...)
}

// popFront removes and returns the frontmost task.
func (d *deque) popFront() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.ts) {
		return Task{}, false
	}
	t := d.ts[d.head]
	d.head++
	return t, true
}

// stealTail removes up to half (at least one) of the remaining tasks from
// the back and returns them as a fresh slice — a copy, because the victim's
// backing array may later be appended over by its own push.
func (d *deque) stealTail() []Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	avail := len(d.ts) - d.head
	if avail == 0 {
		return nil
	}
	take := avail / 2
	if take == 0 {
		take = 1
	}
	out := make([]Task, take)
	copy(out, d.ts[len(d.ts)-take:])
	d.ts = d.ts[:len(d.ts)-take]
	return out
}
