package jobs

// DRR schedule tests: fairness must hold deterministically, as an exact
// property of the dequeue order, not as a statistical tendency.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func qjob(tenant string, n int) *Job {
	return &Job{id: fmt.Sprintf("%s-%d", tenant, n), tenant: tenant}
}

// TestDRRFloodedTenantCannotStarve is the fairness acceptance criterion at
// the queue level: tenant A floods 50 jobs before tenant B's single job
// arrives, yet B's job is the SECOND dequeue — within the documented
// T = 2 pops — and the full schedule matches round robin exactly.
func TestDRRFloodedTenantCannotStarve(t *testing.T) {
	q := newDRRQueue(100)
	for i := 1; i <= 50; i++ {
		if err := q.push(qjob("A", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.push(qjob("B", 1)); err != nil {
		t.Fatal(err)
	}

	// Exact round-robin schedule: one A, one B (its whole backlog),
	// then the remaining 49 A jobs in FIFO order.
	want := []string{"A-1", "B-1"}
	for i := 2; i <= 50; i++ {
		want = append(want, fmt.Sprintf("A-%d", i))
	}
	for pos, id := range want {
		j := q.pop()
		if j == nil {
			t.Fatalf("pop %d: queue empty, want %s", pos+1, id)
		}
		if j.id != id {
			t.Fatalf("pop %d: got %s, want %s (DRR schedule violated)", pos+1, j.id, id)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestDRRRoundRobinAcrossThreeTenants checks the rotation at one job per
// turn: a tenant whose FIFO empties drops out of the rotation until it
// submits again.
func TestDRRRoundRobinAcrossThreeTenants(t *testing.T) {
	q := newDRRQueue(100)
	// A: 5 jobs, B: 1 job, C: 3 jobs — registered in that ring order.
	for i := 1; i <= 5; i++ {
		mustPush(t, q, qjob("A", i))
	}
	mustPush(t, q, qjob("B", 1))
	for i := 1; i <= 3; i++ {
		mustPush(t, q, qjob("C", i))
	}
	want := []string{
		"A-1", "B-1", "C-1", // round 1; B empties
		"A-2", "C-2", // round 2
		"A-3", "C-3", // round 3; C empties
		"A-4", "A-5", // only A remains
	}
	for pos, id := range want {
		if got := qid(q.pop()); got != id {
			t.Fatalf("pop %d: got %s, want %s", pos+1, got, id)
		}
	}
}

// TestDRRNewTenantTakesTheNextTurn: a tenant that first submits after the
// last tenant in the ring was served is next in ring order, not behind the
// ring's first tenant.
func TestDRRNewTenantTakesTheNextTurn(t *testing.T) {
	q := newDRRQueue(10)
	mustPush(t, q, qjob("A", 1))
	mustPush(t, q, qjob("A", 2))
	mustPush(t, q, qjob("B", 1))
	for _, id := range []string{"A-1", "B-1"} {
		if got := qid(q.pop()); got != id {
			t.Fatalf("got %s, want %s", got, id)
		}
	}
	mustPush(t, q, qjob("C", 1))
	for _, id := range []string{"C-1", "A-2"} {
		if got := qid(q.pop()); got != id {
			t.Fatalf("got %s, want %s", got, id)
		}
	}
}

func TestDRRQueueBoundAndRemove(t *testing.T) {
	q := newDRRQueue(3)
	a, b, c := qjob("A", 1), qjob("A", 2), qjob("B", 1)
	mustPush(t, q, a)
	mustPush(t, q, b)
	mustPush(t, q, c)
	if err := q.push(qjob("C", 1)); err != ErrQueueFull {
		t.Fatalf("push beyond bound: got %v, want ErrQueueFull", err)
	}
	if !q.remove(b) {
		t.Fatal("remove of queued job failed")
	}
	if q.remove(b) {
		t.Fatal("second remove of same job should report absence")
	}
	// Bound freed: a new job fits again.
	mustPush(t, q, qjob("C", 1))
	if got := []string{q.pop().id, q.pop().id, q.pop().id}; got[0] != "A-1" || got[1] != "B-1" || got[2] != "C-1" {
		t.Fatalf("unexpected schedule after remove: %v", got)
	}
}

func TestDRRCollectPullsMatchingJobs(t *testing.T) {
	q := newDRRQueue(10)
	a1, a2, b1 := qjob("A", 1), qjob("A", 2), qjob("B", 1)
	mustPush(t, q, a1)
	mustPush(t, q, a2)
	mustPush(t, q, b1)
	got := q.collect(func(j *Job) bool { return j.tenant == "A" })
	if len(got) != 2 || got[0] != a1 || got[1] != a2 {
		t.Fatalf("collect returned %v", got)
	}
	if q.size != 1 {
		t.Fatalf("size after collect = %d, want 1", q.size)
	}
	if j := q.pop(); j != b1 {
		t.Fatalf("survivor = %v, want B-1", j)
	}
}

// TestDRRPeekIsTheNextPop: over seeded scripts of pushes, pops, removes and
// collects across four tenants, peek returns exactly the job the next pop
// returns — nil on an empty queue — and leaves cur and size as it found them,
// so a head the dispatcher waits on keeps its turn.
func TestDRRPeekIsTheNextPop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := newDRRQueue(32)
		var queued []*Job // pushed and still in q, for remove to draw from
		for step, n := 0, 0; step < 400; step++ {
			cur, size := q.cur, q.size
			head := q.peek()
			if q.cur != cur || q.size != size {
				t.Fatalf("seed %d step %d: peek moved (cur, size) from (%d, %d) to (%d, %d)",
					seed, step, cur, size, q.cur, q.size)
			}
			switch op := r.Intn(10); {
			case op < 5:
				n++
				if j := qjob(string(rune('A'+r.Intn(4))), n); q.push(j) == nil {
					queued = append(queued, j)
				}
			case op < 8:
				if j := q.pop(); j != head {
					t.Fatalf("seed %d step %d: peek %s, pop %s", seed, step, qid(head), qid(j))
				}
				queued = slices.DeleteFunc(queued, func(x *Job) bool { return x == head })
			case op < 9 && len(queued) > 0:
				j := queued[r.Intn(len(queued))]
				q.remove(j)
				queued = slices.DeleteFunc(queued, func(x *Job) bool { return x == j })
			default:
				tenant := string(rune('A' + r.Intn(4)))
				for _, j := range q.collect(func(j *Job) bool { return j.tenant == tenant && r.Intn(2) == 0 }) {
					queued = slices.DeleteFunc(queued, func(x *Job) bool { return x == j })
				}
			}
		}
	}
}

func qid(j *Job) string {
	if j == nil {
		return "<nil>"
	}
	return j.id
}

func mustPush(t *testing.T, q *drrQueue, j *Job) {
	t.Helper()
	if err := q.push(j); err != nil {
		t.Fatal(err)
	}
}
