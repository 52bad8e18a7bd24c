package jobs

// Server-level lifecycle tests: dispatch, end-to-end tenant fairness,
// cancellation semantics (queued, mid-run, one-of-a-batch), drain behavior,
// and the jobs.* counters. These run under -race in CI.

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

func submitNamed(t *testing.T, s *Server, tenant, graphName, patName string, opts EngineOptions) string {
	t.Helper()
	pat, err := pattern.ByName(patName)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(SubmitRequest{
		Tenant:  tenant,
		Graph:   GraphRef{Name: graphName},
		Pattern: PatternRef{Name: patName},
		Options: opts,
	}, pat)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func waitDone(t *testing.T, s *Server, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Wait(ctx, id); err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func closeServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("closing server: %v", err)
	}
}

func TestJobLifecycleSingle(t *testing.T) {
	g := graph.ChungLu(200, 1200, 2.3, 3)
	reg := obs.NewRegistry(nil)
	s := New(Config{Registry: reg, Graphs: map[string]graph.Store{"g": g}})
	defer closeServer(t, s)

	id := submitNamed(t, s, "alice", "g", "triangle", EngineOptions{Workers: 2})
	st := waitDone(t, s, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	res, err := s.Result(id)
	if err != nil || res == nil {
		t.Fatalf("result: %v, %v", res, err)
	}
	if res.Count <= 0 || res.Partial || res.BatchWidth != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	if got := solo(t, g, "triangle"); res.Count != got {
		t.Fatalf("job count %d != direct engine count %d", res.Count, got)
	}
	if v := reg.Get(MetricCompleted); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricCompleted, v)
	}
	if v := reg.Get(MetricQueued); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricQueued, v)
	}

	// A finished job keeps its batch for the status surface but not the
	// batch's cancel context, and cancelling it stays a harmless no-op.
	s.mu.Lock()
	for s.busy > 0 {
		s.cond.Wait()
	}
	b := s.jobs[id].batch
	released := b != nil && b.ctx == nil && b.cancel == nil
	s.mu.Unlock()
	if !released {
		t.Fatalf("finished job's batch still holds its context: %+v", b)
	}
	if got, err := s.Cancel(id); err != nil || got != StateDone {
		t.Fatalf("cancel after completion: %s, %v", got, err)
	}
	if st, _ := s.Status(id); st.BatchWidth != 1 {
		t.Fatalf("status lost the batch width: %+v", st)
	}
}

// TestTenantFairnessEndToEnd is the fairness acceptance criterion at the
// server level: tenant A floods the queue with 20 jobs before tenant B's
// single job arrives; with twin sharing off (runApart) the dispatch order —
// the order of the compiling transitions, which the dispatcher fires itself —
// is the exact DRR schedule, A's first job, B's, then A's backlog, whether one
// one-thread batch runs at a time or two do (budgets 1 and 2).
func TestTenantFairnessEndToEnd(t *testing.T) {
	g := graph.ChungLu(120, 600, 2.3, 5)
	for _, budget := range []int{1, 2} {
		var mu sync.Mutex
		var dispatched []string
		s := New(Config{
			Graphs:      map[string]graph.Store{"g": g},
			MaxQueue:    64,
			StartPaused: true,
			OnTransition: func(id string, st State) {
				if st == StateCompiling {
					mu.Lock()
					dispatched = append(dispatched, id)
					mu.Unlock()
				}
			},
		})
		setThreads(s, budget)
		runApart(s) // A's jobs are twins: isolate fairness from sharing

		var aIDs []string
		for i := 0; i < 20; i++ {
			aIDs = append(aIDs, submitNamed(t, s, "A", "g", "triangle", EngineOptions{Workers: 1}))
		}
		bID := submitNamed(t, s, "B", "g", "wedge", EngineOptions{Workers: 1})
		s.Resume()

		want := append([]string{aIDs[0], bID}, aIDs[1:]...)
		for _, id := range want {
			if st := waitDone(t, s, id); st.State != StateDone {
				t.Fatalf("budget %d: job %s: state %s (%s)", budget, id, st.State, st.Error)
			}
		}
		closeServer(t, s)
		mu.Lock()
		if !slices.Equal(dispatched, want) {
			t.Errorf("budget %d: dispatch order %v, want the DRR schedule %v", budget, dispatched, want)
		}
		mu.Unlock()
	}
}

func TestCancelQueuedJob(t *testing.T) {
	g := graph.ChungLu(100, 500, 2.3, 2)
	reg := obs.NewRegistry(nil)
	s := New(Config{Registry: reg, Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	id := submitNamed(t, s, "A", "g", "triangle", EngineOptions{})
	st, err := s.Cancel(id)
	if err != nil || st != StateCancelled {
		t.Fatalf("cancel: state %s, err %v", st, err)
	}
	res, err := s.Result(id)
	if err != nil || res != nil {
		t.Fatalf("queued-cancelled job should have no result, got %+v, %v", res, err)
	}
	if v := reg.Get(MetricCancelled); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricCancelled, v)
	}
	// Cancelling a terminal job is a no-op.
	if st, err := s.Cancel(id); err != nil || st != StateCancelled {
		t.Fatalf("re-cancel: %s, %v", st, err)
	}
	if _, err := s.Cancel("job-999"); err != ErrNotFound {
		t.Fatalf("cancel of unknown job: %v, want ErrNotFound", err)
	}
}

// TestCancelMidRunReturnsPartials cancels a deliberately heavy job once the
// engine is running and asserts the cancelled state carries a partial result
// (MineContext returns the counts accumulated before cancellation).
func TestCancelMidRunReturnsPartials(t *testing.T) {
	// ≈ 1.6 s of single-thread work on a 2-vCPU Xeon if left alone — cancelled
	// almost immediately.
	g := graph.ChungLu(4000, 100000, 2.3, 13)
	running := make(chan string, 4)
	s := New(Config{
		Graphs: map[string]graph.Store{"big": g},
		OnTransition: func(id string, st State) {
			if st == StateRunning {
				running <- id
			}
		},
	})
	defer closeServer(t, s)

	id := submitNamed(t, s, "A", "big", "house", EngineOptions{Workers: 1})
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached running")
	}
	if st, err := s.Cancel(id); err != nil || st.Terminal() && st != StateCancelled {
		t.Fatalf("cancel: state %s, err %v", st, err)
	}
	st := waitDone(t, s, id)
	if st.State != StateCancelled {
		t.Fatalf("state after mid-run cancel = %s (%s), want cancelled", st.State, st.Error)
	}
	res, err := s.Result(id)
	if err != nil || res == nil {
		t.Fatalf("mid-run cancel must keep partial results, got %v, %v", res, err)
	}
	if !res.Partial {
		t.Fatal("result not marked partial")
	}
}

// TestCancelOneOfBatch cancels one of two twins sharing a batch and asserts
// the other still completes with its full count.
func TestCancelOneOfBatch(t *testing.T) {
	// Big enough (~100ms of mining) that the cancel reliably lands mid-run.
	g := graph.ChungLu(4000, 48000, 2.3, 13)
	running := make(chan string, 8)
	s := New(Config{
		Graphs:      map[string]graph.Store{"g": g},
		StartPaused: true,
		OnTransition: func(id string, st State) {
			if st == StateRunning {
				running <- id
			}
		},
	})
	defer closeServer(t, s)

	opts := EngineOptions{Workers: 1}
	idA := submitNamed(t, s, "A", "g", "diamond", opts)
	idB := submitNamed(t, s, "B", "g", "diamond", opts)
	s.Resume()
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("batch never reached running")
	}
	if _, err := s.Cancel(idA); err != nil {
		t.Fatal(err)
	}
	stA := waitDone(t, s, idA)
	if stA.State != StateCancelled {
		t.Fatalf("cancelled member state = %s, want cancelled", stA.State)
	}
	stB := waitDone(t, s, idB)
	if stB.State != StateDone {
		t.Fatalf("surviving member state = %s (%s), want done", stB.State, stB.Error)
	}
	resB, err := s.Result(idB)
	if err != nil || resB == nil {
		t.Fatalf("surviving member result: %v, %v", resB, err)
	}
	if resB.Partial || resB.BatchWidth != 2 {
		t.Fatalf("surviving member result %+v: want full (non-partial) count from a width-2 batch", resB)
	}
	if want := solo(t, g, "diamond"); resB.Count != want {
		t.Fatalf("surviving member count %d != individual count %d", resB.Count, want)
	}
}

// goroutinesReturnTo polls (≤ 2 s) for the goroutine count to fall back to a
// baseline taken before a spawner ran.
func goroutinesReturnTo(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCloseJoinsDispatcherAndRunners holds the goroutine-leak invariant for
// the job server's two spawn sites, the dispatcher and one runner per batch:
// a server that ran a twins' batch with one member cancelled mid-flight is,
// after Close, entirely gone — three times over, so a goroutine leaked per
// server or per batch shows as a growing count.
func TestCloseJoinsDispatcherAndRunners(t *testing.T) {
	g := graph.ChungLu(1000, 9000, 2.3, 13)
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		running := make(chan string, 8)
		s := New(Config{
			Graphs:      map[string]graph.Store{"g": g},
			StartPaused: true,
			OnTransition: func(id string, st State) {
				if st == StateRunning {
					running <- id
				}
			},
		})
		opts := EngineOptions{Workers: 2}
		idA := submitNamed(t, s, "A", "g", "diamond", opts)
		idB := submitNamed(t, s, "B", "g", "diamond", opts)
		s.Resume()
		select {
		case <-running:
		case <-time.After(30 * time.Second):
			t.Fatal("batch never reached running")
		}
		if _, err := s.Cancel(idA); err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, idB); st.BatchWidth != 2 {
			t.Fatalf("round %d: jobs ran in a width-%d batch, want 2", round, st.BatchWidth)
		}
		closeServer(t, s)
	}
	goroutinesReturnTo(t, before)
}

// faultyStore is a graph whose reads panic: the adjacency of its highest-degree
// vertex when adj is set (inside a scheduler task, on a worker goroutine),
// MaxDegree otherwise (sizing the engine, on the batch runner's own).
type faultyStore struct {
	graph.Store
	adj bool
}

func (f faultyStore) Adj(v graph.VID) []graph.VID {
	if f.adj && f.Degree(v) == f.Store.MaxDegree() {
		panic("adjacency is corrupt")
	}
	return f.Store.Adj(v)
}

func (f faultyStore) MaxDegree() int {
	if !f.adj {
		panic("degree table is corrupt")
	}
	return f.Store.MaxDegree()
}

// TestPanickingJobFailsAlone: a job whose run panics — in a task or around the
// tasks — ends failed with the panic in its error and its status still answering,
// is counted once in jobs.panics and leaves one event-log record with the panic
// site's stack (at most 4 KB); the server goes on to run the next tenant's job on
// a healthy graph to the one-shot count, and every goroutine is joined.
func TestPanickingJobFailsAlone(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	want := solo(t, g, "diamond")
	before := runtime.NumGoroutine()
	for _, c := range []struct {
		name  string
		bad   faultyStore
		frame string
	}{
		{"in a task", faultyStore{Store: g, adj: true}, "faultyStore.Adj"},
		{"around the tasks", faultyStore{Store: g}, "faultyStore.MaxDegree"},
	} {
		reg, elog := obs.NewRegistry(nil), obs.NewEventLog(0)
		s := New(Config{Registry: reg, EventLog: elog, Graphs: map[string]graph.Store{"bad": c.bad, "good": g}})
		st := waitDone(t, s, submitNamed(t, s, "alice", "bad", "diamond", EngineOptions{Workers: 2}))
		if st.State != StateFailed || !strings.Contains(st.Error, "panic") || !strings.Contains(st.Error, "is corrupt") {
			t.Errorf("%s: job on the faulty graph ended %s (%q), want failed with the panic's message", c.name, st.State, st.Error)
		}
		good := submitNamed(t, s, "bob", "good", "diamond", EngineOptions{Workers: 2})
		if st := waitDone(t, s, good); st.State != StateDone {
			t.Fatalf("%s: next job ended %s (%s), want done", c.name, st.State, st.Error)
		}
		if res, err := s.Result(good); err != nil || res.Count != want || res.Partial {
			t.Errorf("%s: next job returned %+v, %v; want the one-shot count %d", c.name, res, err, want)
		}
		if p, f, d := reg.Get(MetricPanics), reg.Get(MetricFailed), reg.Get(MetricCompleted); p != 1 || f != 1 || d != 1 {
			t.Errorf("%s: %d panics, %d failed, %d completed; want 1 of each", c.name, p, f, d)
		}
		var stacks []string
		for _, rec := range elog.Records() {
			if rec.Event == "panic" {
				stacks = append(stacks, rec.Stack)
			}
		}
		if len(stacks) != 1 || !strings.Contains(stacks[0], c.frame) || len(stacks[0]) > 4<<10 {
			t.Errorf("%s: panic records carry %q; want one stack of at most 4 KB through %s", c.name, stacks, c.frame)
		}
		closeServer(t, s)
	}
	goroutinesReturnTo(t, before)
}

// TestDrainWaitsForRunningJobs: Drain must let the in-flight batch finish
// (done, full result), cancel everything still queued, and reject new
// submissions. The running job holds the whole thread budget, so the second
// one stays queued on any host.
func TestDrainWaitsForRunningJobs(t *testing.T) {
	g := graph.ChungLu(400, 3200, 2.3, 9)
	running := make(chan string, 8)
	s := New(Config{
		Graphs: map[string]graph.Store{"g": g},
		OnTransition: func(id string, st State) {
			if st == StateRunning {
				running <- id
			}
		},
	})
	setThreads(s, 2)

	idRun := submitNamed(t, s, "A", "g", "house", EngineOptions{Workers: 2})
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("first job never started")
	}
	idQueued := submitNamed(t, s, "A", "g", "triangle", EngineOptions{Workers: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if st, _ := s.Status(idRun); st.State != StateDone {
		t.Fatalf("running job after drain = %s (%s), want done", st.State, st.Error)
	}
	res, _ := s.Result(idRun)
	if res == nil || res.Partial {
		t.Fatalf("drained job result %+v, want full result", res)
	}
	if st, _ := s.Status(idQueued); st.State != StateCancelled {
		t.Fatalf("queued job after drain = %s, want cancelled", st.State)
	}
	pat, _ := pattern.ByName("triangle")
	if _, err := s.Submit(SubmitRequest{Tenant: "A", Graph: GraphRef{Name: "g"}, Pattern: PatternRef{Name: "triangle"}}, pat); err != ErrClosed {
		t.Fatalf("submit after drain: %v, want ErrClosed", err)
	}
	closeServer(t, s)
}

// TestDrainDeadlineCancelsRunning: when the drain context expires first, the
// running engines are cancelled and unwind with partial results.
func TestDrainDeadlineCancelsRunning(t *testing.T) {
	g := graph.ChungLu(4000, 100000, 2.3, 13) // ≈ 1.6 s single-thread on a 2-vCPU Xeon if left alone
	running := make(chan string, 4)
	s := New(Config{
		Graphs: map[string]graph.Store{"g": g},
		OnTransition: func(id string, st State) {
			if st == StateRunning {
				running <- id
			}
		},
	})
	id := submitNamed(t, s, "A", "g", "house", EngineOptions{Workers: 1})
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain past deadline: %v, want DeadlineExceeded", err)
	}
	if st, _ := s.Status(id); st.State != StateCancelled {
		t.Fatalf("job after deadline drain = %s, want cancelled", st.State)
	}
	res, _ := s.Result(id)
	if res == nil || !res.Partial {
		t.Fatalf("deadline-drained job result %+v, want partial result", res)
	}
	closeServer(t, s)
}

func TestJobTimeoutCancelsWithPartials(t *testing.T) {
	g := graph.ChungLu(4000, 100000, 2.3, 13)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}})
	defer closeServer(t, s)

	id := submitNamed(t, s, "A", "g", "house", EngineOptions{Workers: 1, TimeoutMS: 100})
	st := waitDone(t, s, id)
	if st.State != StateCancelled {
		t.Fatalf("timed-out job state = %s (%s), want cancelled", st.State, st.Error)
	}
	res, _ := s.Result(id)
	if res == nil || !res.Partial {
		t.Fatalf("timed-out job result %+v, want partial", res)
	}
}

func TestSubmitValidation(t *testing.T) {
	g := graph.ChungLu(50, 200, 2.3, 1)
	s := New(Config{Graphs: map[string]graph.Store{"g": g}, StartPaused: true})
	defer closeServer(t, s)

	pat, _ := pattern.ByName("triangle")
	cases := []SubmitRequest{
		{Tenant: "A", Graph: GraphRef{Name: "nope"}, Pattern: PatternRef{Name: "triangle"}},  // unknown named graph
		{Tenant: "A", Graph: GraphRef{Path: "x.bin"}, Pattern: PatternRef{Name: "triangle"}}, // path refs disabled
	}
	for _, req := range cases {
		if _, err := s.Submit(req, pat); err == nil {
			t.Fatalf("submit %+v: expected error", req)
		}
	}
}

func TestGraphPathConfinement(t *testing.T) {
	for _, bad := range []string{"/etc/passwd", "../outside.bin", "a/../../b"} {
		if _, err := confinePath("/tmp/graphs", bad); err == nil {
			t.Errorf("confinePath(%q) accepted an escaping path", bad)
		}
	}
	if _, err := confinePath("/tmp/graphs", "sub/ok.bin"); err != nil {
		t.Errorf("confinePath rejected a legitimate path: %v", err)
	}
	if _, err := confinePath("", "ok.bin"); err == nil {
		t.Error("confinePath with no root should reject everything")
	}
}
