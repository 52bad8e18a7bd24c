package jobs

// The bounded, tenant-fair job queue: one FIFO per tenant, drained by deficit
// round-robin (DRR). Every job costs one unit; each tenant in turn receives
// `quantum` units of deficit and dequeues until its deficit or its FIFO is
// exhausted, so a tenant flooding the queue cannot starve the others — with T
// active tenants and quantum Q, any tenant's head job is dequeued within
// (T-1)·Q + 1 pops of reaching the front of its FIFO. The schedule is a
// deterministic function of the arrival order (ring order is first-submission
// order, ties never consult map iteration), which is what lets the fairness
// test assert exact dequeue positions.
//
// The queue is not goroutine-safe: the Server serializes access under its
// mutex.

type drrQueue struct {
	max     int // bound on queued jobs plus held slots
	quantum int // dequeues granted per tenant per round

	tenants map[string]*tenantQ
	ring    []*tenantQ // first-submission order; never reordered
	cur     int        // ring index of the tenant currently being served
	deficit int        // remaining dequeues for ring[cur] this round
	size    int
	held    int // slots held outside the FIFOs: jobs that joined an in-flight batch, not yet finalized
}

type tenantQ struct {
	name string
	fifo []*Job
}

func newDRRQueue(max, quantum int) *drrQueue {
	if quantum < 1 {
		quantum = 1
	}
	return &drrQueue{max: max, quantum: quantum, tenants: map[string]*tenantQ{}, deficit: quantum}
}

// push appends j to its tenant's FIFO, registering the tenant at the back of
// the ring on first contact. Returns ErrQueueFull at the bound.
func (q *drrQueue) push(j *Job) error {
	if q.full() {
		return ErrQueueFull
	}
	t := q.tenants[j.tenant]
	if t == nil {
		t = &tenantQ{name: j.tenant}
		q.tenants[j.tenant] = t
		q.ring = append(q.ring, t)
	}
	t.fifo = append(t.fifo, j)
	q.size++
	return nil
}

// hold takes one slot of the bound for a job that waits outside the FIFOs
// (a joiner), or returns ErrQueueFull at the bound; release gives it back
// once the job is finalized. A held slot is never popped.
func (q *drrQueue) hold() error {
	if q.full() {
		return ErrQueueFull
	}
	q.held++
	return nil
}

func (q *drrQueue) release() { q.held-- }

// full reports whether the bound is reached: queued jobs and held slots
// count alike, so a flood of one pattern meets 429 at the same depth
// whether it queues or joins.
func (q *drrQueue) full() bool { return q.size+q.held >= q.max }

// pop removes and returns the next job under the DRR schedule, or nil when
// the queue is empty. A tenant whose FIFO empties forfeits its remaining
// deficit (no banking while idle — the classic DRR rule).
func (q *drrQueue) pop() *Job {
	if q.size == 0 {
		return nil
	}
	for {
		t := q.ring[q.cur]
		if q.deficit > 0 && len(t.fifo) > 0 {
			j := t.fifo[0]
			t.fifo[0] = nil // release the reference
			t.fifo = t.fifo[1:]
			q.deficit--
			q.size--
			return j
		}
		q.cur = (q.cur + 1) % len(q.ring)
		q.deficit = q.quantum
	}
}

// peek returns the job pop would return next, or nil when the queue is empty,
// and changes nothing: the dispatcher waits on the head this way, so a head
// that waits for engine threads keeps its turn.
func (q *drrQueue) peek() *Job {
	if q.size == 0 {
		return nil
	}
	if t := q.ring[q.cur]; q.deficit > 0 && len(t.fifo) > 0 {
		return t.fifo[0]
	}
	// pop would move on with a fresh quantum (≥ 1): the first non-empty FIFO
	// after cur in ring order, cur itself last.
	for i := 1; ; i++ {
		if t := q.ring[(q.cur+i)%len(q.ring)]; len(t.fifo) > 0 {
			return t.fifo[0]
		}
	}
}

// remove deletes j from its tenant's FIFO (a queued-job cancellation).
// Reports whether the job was present.
func (q *drrQueue) remove(j *Job) bool {
	t := q.tenants[j.tenant]
	if t == nil {
		return false
	}
	for i, x := range t.fifo {
		if x == j {
			t.fifo = append(t.fifo[:i], t.fifo[i+1:]...)
			q.size--
			return true
		}
	}
	return false
}

// collect removes and returns, in ring-then-FIFO order, every queued job the
// callback accepts. The batch gatherer uses it to pull same-graph compatible
// jobs out of the queue; accepted jobs skip the DRR schedule entirely (they
// ride along with the batch being dispatched, which only ever shortens their
// wait).
func (q *drrQueue) collect(accept func(*Job) bool) []*Job {
	var out []*Job
	for _, t := range q.ring {
		kept := t.fifo[:0]
		for _, j := range t.fifo {
			if accept(j) {
				out = append(out, j)
				q.size--
			} else {
				kept = append(kept, j)
			}
		}
		for i := len(kept); i < len(t.fifo); i++ {
			t.fifo[i] = nil
		}
		t.fifo = kept
	}
	return out
}
