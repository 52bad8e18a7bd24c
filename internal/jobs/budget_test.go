package jobs

// The thread budget (Server.threads, GOMAXPROCS): batches whose engine threads
// fit run side by side, a batch of default jobs (GOMAXPROCS workers) or one
// larger than the budget runs alone, and Close drains every batch in flight.
// These run under -race in CI, three times over.

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// setThreads sets s's thread budget, so a test reads the same on any host;
// call it before the first job can dispatch (before a submit, or while paused).
func setThreads(s *Server, n int) {
	s.mu.Lock()
	s.threads = n
	s.mu.Unlock()
}

// runApart turns twin sharing off, so a test sees one engine run per job even
// where the jobs are identical. Call it before the first job can dispatch, as
// setThreads.
func runApart(s *Server) {
	s.mu.Lock()
	s.apart = true
	s.mu.Unlock()
}

// gateStore holds each engine run on its graph at the run's first MaxDegree
// call — in core's newWorker or slice sizing, on the batch runner's goroutine,
// after the batch turned running — until the test opens it, and signals once
// n runs are held at once. Runs held together are provably in flight together,
// and a run held alone is a window in which the dispatcher must start nothing
// beside it. Like faultyStore, it wraps the store a batch reads.
type gateStore struct {
	graph.Store
	n    int
	mu   sync.Mutex
	held int
	full chan struct{} // closed once n runs are held at once
	gate chan struct{} // closed once the gate opens
	once sync.Once
}

func newGateStore(g graph.Store, n int) *gateStore {
	return &gateStore{Store: g, n: n, full: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gateStore) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gateStore) MaxDegree() int {
	g.mu.Lock()
	select {
	case <-g.gate:
	default:
		// The gate is shut, so this is a run's first call: its later ones
		// come from the same goroutine after the gate opens.
		if g.held++; g.held == g.n {
			close(g.full)
		}
	}
	g.mu.Unlock()
	<-g.gate
	return g.Store.MaxDegree()
}

// waitFull waits (≤ 30 s) until n runs are held at once.
func (g *gateStore) waitFull(t *testing.T) {
	t.Helper()
	select {
	case <-g.full:
	case <-time.After(30 * time.Second):
		g.mu.Lock()
		defer g.mu.Unlock()
		t.Fatalf("%d of %d runs started: the dispatcher did not run them side by side", g.held, g.n)
	}
}

// heldAlone reports whether the gate stayed short of n held runs for d — the
// dispatcher started nothing beside the run it holds — and then opens it.
func (g *gateStore) heldAlone(d time.Duration) bool {
	defer g.open()
	select {
	case <-g.full:
		return false
	case <-time.After(d):
		return true
	}
}

// flight records, from OnTransition, which jobs were ever between compiling and
// a terminal state at the same time as another. The dispatcher fires compiling
// when it admits a batch, and a runner fires its jobs' terminal states before
// the batch's threads return to the budget, so two jobs seen in flight together
// were admitted together (the tests that use it submit distinct patterns, one
// job per batch).
type flight struct {
	mu     sync.Mutex
	now    map[string]bool
	shared map[string]bool
}

func newFlight() *flight { return &flight{now: map[string]bool{}, shared: map[string]bool{}} }

func (f *flight) observe(id string, st State) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case st == StateCompiling:
		for other := range f.now {
			f.shared[other], f.shared[id] = true, true
		}
		f.now[id] = true
	case st.Terminal():
		delete(f.now, id)
	}
}

func (f *flight) alone(id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.shared[id]
}

// waitAllDone waits for every job and holds each to the count its pattern mines
// alone on g.
func waitAllDone(t *testing.T, s *Server, g graph.Store, jobs map[string]string) {
	t.Helper()
	for id, name := range jobs {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s (%s): %s (%s)", id, name, st.State, st.Error)
		}
		if res, err := s.Result(id); err != nil || res.Partial || res.Count != solo(t, g, name) {
			t.Errorf("job %s (%s) returned %+v, %v; want the one-shot count %d", id, name, res, err, solo(t, g, name))
		}
	}
}

// TestBudgetRunsTwoTenantsSideBySide: with a budget of two threads, two
// tenants' one-worker jobs are both running at once — the gate holds each run
// until the other has started, and the status surface shows both running.
func TestBudgetRunsTwoTenantsSideBySide(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	gate := newGateStore(g, 2)
	f := newFlight()
	s := New(Config{Graphs: map[string]graph.Store{"g": gate}, OnTransition: f.observe})
	setThreads(s, 2)
	defer closeServer(t, s)
	defer gate.open()

	a := submitNamed(t, s, "alice", "g", "triangle", EngineOptions{Workers: 1})
	b := submitNamed(t, s, "bob", "g", "diamond", EngineOptions{Workers: 1})
	gate.waitFull(t)
	for _, id := range []string{a, b} {
		if st, _ := s.Status(id); st.State != StateRunning {
			t.Errorf("job %s is %s while both runs are held, want running", id, st.State)
		}
	}
	gate.open()
	waitAllDone(t, s, g, map[string]string{a: "triangle", b: "diamond"})
	if f.alone(a) || f.alone(b) {
		t.Errorf("the two jobs were never in flight together")
	}
}

// TestBudgetDefaultJobRunsAlone: a job that leaves workers at 0 asks for
// GOMAXPROCS threads, the whole default budget, so it never shares the
// processors — not with a one-worker job dispatched after it, not with the
// two dispatched before it.
func TestBudgetDefaultJobRunsAlone(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	gate := newGateStore(g, 2)
	f := newFlight()
	s := New(Config{Graphs: map[string]graph.Store{"g": gate}, StartPaused: true, OnTransition: f.observe})
	defer closeServer(t, s)
	defer gate.open()

	first := submitNamed(t, s, "a", "g", "diamond", EngineOptions{})
	one := submitNamed(t, s, "b", "g", "triangle", EngineOptions{Workers: 1})
	two := submitNamed(t, s, "c", "g", "wedge", EngineOptions{Workers: 1})
	last := submitNamed(t, s, "d", "g", "4-path", EngineOptions{})
	s.Resume()
	if !gate.heldAlone(200 * time.Millisecond) {
		t.Error("a run started beside the workers:0 job")
	}
	waitAllDone(t, s, g, map[string]string{first: "diamond", one: "triangle", two: "wedge", last: "4-path"})
	for _, id := range []string{first, last} {
		if !f.alone(id) {
			t.Errorf("workers:0 job %s was in flight beside another batch", id)
		}
	}
}

// TestBudgetOversizedBatchRunsAlone: a batch asking for more threads than the
// budget waits for the running batch to finish, then runs with nothing beside
// it — the one-worker job queued behind it waits its turn — and nothing
// deadlocks.
func TestBudgetOversizedBatchRunsAlone(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	gate := newGateStore(g, 2)
	f := newFlight()
	s := New(Config{Graphs: map[string]graph.Store{"g": gate}, StartPaused: true, OnTransition: f.observe})
	setThreads(s, 2)
	defer closeServer(t, s)
	defer gate.open()

	small := submitNamed(t, s, "a", "g", "triangle", EngineOptions{Workers: 1})
	big := submitNamed(t, s, "b", "g", "diamond", EngineOptions{Workers: 4})
	after := submitNamed(t, s, "c", "g", "wedge", EngineOptions{Workers: 1})
	s.Resume()
	if !gate.heldAlone(200 * time.Millisecond) {
		t.Error("the four-thread batch started beside a running one on a budget of two")
	}
	waitAllDone(t, s, g, map[string]string{small: "triangle", big: "diamond", after: "wedge"})
	if !f.alone(big) {
		t.Error("the batch larger than the budget was in flight beside another")
	}
}

// TestBudgetCloseDrainsTwoBatches: Close with two batches running finishes
// both — done, full counts — before it returns, and leaves no goroutine behind.
func TestBudgetCloseDrainsTwoBatches(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	before := runtime.NumGoroutine()
	gate := newGateStore(g, 2)
	s := New(Config{Graphs: map[string]graph.Store{"g": gate}})
	setThreads(s, 2)
	defer gate.open()

	a := submitNamed(t, s, "alice", "g", "triangle", EngineOptions{Workers: 1})
	b := submitNamed(t, s, "bob", "g", "diamond", EngineOptions{Workers: 1})
	gate.waitFull(t)
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	for {
		s.mu.Lock()
		closing := s.closing
		s.mu.Unlock()
		if closing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	gate.open()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitAllDone(t, s, g, map[string]string{a: "triangle", b: "diamond"})
	goroutinesReturnTo(t, before)
}
