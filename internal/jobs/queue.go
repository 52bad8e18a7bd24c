package jobs

// The bounded, tenant-fair job queue: one FIFO per tenant, drained round
// robin — deficit round-robin (DRR) at a fixed quantum of one job, so the turn
// passes after every pop. A tenant flooding the queue cannot starve the
// others: with T active tenants, any tenant's head job is dequeued within T
// pops of reaching the front of its FIFO. The schedule is a deterministic
// function of the arrival order (ring order is first-submission order, ties
// never consult map iteration), which is what lets the fairness test assert
// exact dequeue positions.
//
// The queue is not goroutine-safe: the Server serializes access under its
// mutex.

type drrQueue struct {
	max int // bound on queued jobs plus held slots

	tenants map[string]*tenantQ
	ring    []*tenantQ // first-submission order; never reordered
	cur     int        // where the search for the next turn starts, taken modulo len(ring)
	size    int
	held    int // slots held outside the FIFOs: jobs that joined an in-flight batch, not yet finalized
}

type tenantQ struct {
	name string
	fifo []*Job
}

func newDRRQueue(max int) *drrQueue {
	return &drrQueue{max: max, tenants: map[string]*tenantQ{}}
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

// pop removes and returns the head of the tenant whose turn it is, or nil
// when the queue is empty, and passes the turn to the next tenant in ring
// order.
func (q *drrQueue) pop() *Job {
	i := q.turn()
	if i < 0 {
		return nil
	}
	t := q.ring[i]
	j := t.fifo[0]
	t.fifo[0] = nil // release the reference
	t.fifo = t.fifo[1:]
	q.size--
	// Not reduced modulo len(ring) here: a tenant that joins the ring before
	// the next pop is next in line after ring[i], not behind ring[0].
	q.cur = i + 1
	return j
}

// peek returns the job pop would return next, or nil when the queue is empty,
// and changes nothing: the dispatcher waits on the head this way, so a head
// that waits for engine threads keeps its turn.
func (q *drrQueue) peek() *Job {
	if i := q.turn(); i >= 0 {
		return q.ring[i].fifo[0]
	}
	return nil
}

// turn returns the ring index of the tenant whose turn it is — the first
// non-empty FIFO from cur on, in ring order — or -1 when the queue is empty.
func (q *drrQueue) turn() int {
	if q.size == 0 {
		return -1
	}
	for i := 0; ; i++ {
		if k := (q.cur + i) % len(q.ring); len(q.ring[k].fifo) > 0 {
			return k
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
// jobs out of the queue; accepted jobs skip the round-robin schedule entirely (they
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
