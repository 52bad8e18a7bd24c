package jobs

// Single flight: a job submitted while an isomorphic twin's batch is in flight
// joins that batch's leg instead of queueing. The run is held with gateStore
// (budget_test.go), so "in flight" is a fact of the test, not of timing. These
// run under -race in CI, three times over.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// submitReq submits one job with the given graph reference and induced flag;
// submitNamed covers the named, edge-induced rest.
func submitReq(t *testing.T, s *Server, tenant string, ref GraphRef, patName string, induced bool, opts EngineOptions) string {
	t.Helper()
	pat, err := pattern.ByName(patName)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(SubmitRequest{
		Tenant:  tenant,
		Graph:   ref,
		Pattern: PatternRef{Name: patName, Induced: induced},
		Options: opts,
	}, pat)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// batches is how many batches s has gathered: one per engine run.
func batches(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextBatch
}

// TestJoinTwinSharesTheRun: twins submitted while the first job's run is held
// join it — running at once, queue wait 0, width growing with each — and the
// one engine run answers every one of them with the solo count, the batch's
// Stats and its final width. Two twins across two tenants, or one.
func TestJoinTwinSharesTheRun(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	want := solo(t, g, "diamond")
	for _, twins := range [][]string{{"bob"}, {"bob", "alice"}} {
		reg := obs.NewRegistry(nil)
		gate := newGateStore(g, 1)
		s := New(Config{Registry: reg, Graphs: map[string]graph.Store{"g": gate}})
		setThreads(s, 2)
		opts := EngineOptions{Workers: 1}
		ids := []string{submitNamed(t, s, "alice", "g", "diamond", opts)}
		gate.waitFull(t)
		for i, tenant := range twins {
			id := submitNamed(t, s, tenant, "g", "diamond", opts)
			ids = append(ids, id)
			st, _ := s.Status(id)
			if st.State != StateRunning || st.BatchWidth != i+2 || st.StartedAt != st.SubmittedAt {
				t.Errorf("twin %s: %s in a width-%d batch, started %d, submitted %d; want running in width %d from its submit",
					id, st.State, st.BatchWidth, st.StartedAt, st.SubmittedAt, i+2)
			}
		}
		gate.open()
		var first *Result
		for _, id := range ids {
			st := waitDone(t, s, id)
			res, err := s.Result(id)
			if st.State != StateDone || err != nil || res.Count != want || res.Partial || res.BatchWidth != len(ids) {
				t.Fatalf("job %s ended %s (%s) with %+v, %v; want done with %d from a width-%d batch", id, st.State, st.Error, res, err, want, len(ids))
			}
			if first == nil {
				first = res
			} else if res.Stats != first.Stats {
				t.Errorf("job %s's Stats differ from its batch's", id)
			}
		}
		if n := batches(s); n != 1 {
			t.Errorf("%d twins: %d engine runs, want 1", len(twins), n)
		}
		if w, b := reg.Get(MetricBatchWidth), reg.Get(MetricBatched); w != int64(len(ids)) || b != int64(len(ids)) {
			t.Errorf("%s = %d, %s = %d; want %d each", MetricBatchWidth, w, MetricBatched, b, len(ids))
		}
		closeServer(t, s)
	}
}

// TestJoinRacesTheDispatcher: a twin submitted right behind its first job
// either queues beside it or joins it the moment the dispatcher lets go of the
// lock — while the dispatcher is still counting the batch's width. Either way
// there is one engine run and the width counters read 2 and 2; under -race a
// width read outside the lock is reported.
func TestJoinRacesTheDispatcher(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	opts := EngineOptions{Workers: 1}
	joined := 0
	for i := 0; i < 100; i++ {
		reg := obs.NewRegistry(nil)
		gate := newGateStore(g, 1)
		s := New(Config{Registry: reg, Graphs: map[string]graph.Store{"g": gate}})
		first := submitNamed(t, s, "alice", "g", "triangle", opts)
		twin := submitNamed(t, s, "bob", "g", "triangle", opts)
		gate.open()
		waitDone(t, s, first)
		waitDone(t, s, twin)
		s.mu.Lock()
		if s.jobs[twin].joined {
			joined++
		}
		s.mu.Unlock()
		if n, w, b := batches(s), reg.Get(MetricBatchWidth), reg.Get(MetricBatched); n != 1 || w != 2 || b != 2 {
			t.Fatalf("round %d: %d engine runs, %s = %d, %s = %d; want 1, 2 and 2", i, n, MetricBatchWidth, w, MetricBatched, b)
		}
		closeServer(t, s)
	}
	t.Logf("%d of 100 twins joined in flight, the rest were gathered", joined)
}

// TestJoinWhileCompiling: a twin that arrives while its batch is still
// compiling (held opening its graph) joins it as compiling, and the batch's
// start moves it to running with the rest.
func TestJoinWhileCompiling(t *testing.T) {
	dir, g := writeGraphDir(t)
	s := New(Config{GraphDir: dir})
	defer closeServer(t, s)
	hold := make(chan struct{})
	setOpen(s, func(path string, mmap bool) (graph.Store, func() error, error) {
		<-hold
		return graph.Open(path, mmap)
	})
	ref := GraphRef{Path: "g.bin"}
	first := submitReq(t, s, "alice", ref, "triangle", false, EngineOptions{Workers: 1})
	blockedInGraphFor(t, 1)
	twin := submitReq(t, s, "bob", ref, "triangle", false, EngineOptions{Workers: 1})
	if st, _ := s.Status(twin); st.State != StateCompiling || st.BatchWidth != 2 {
		t.Errorf("twin is %s in a width-%d batch; want compiling in width 2", st.State, st.BatchWidth)
	}
	close(hold)
	waitAllDone(t, s, g, map[string]string{first: "triangle", twin: "triangle"})
	if st, _ := s.Status(twin); st.StartedAt == 0 {
		t.Errorf("twin's run was never stamped: %+v", st)
	}
	if n := batches(s); n != 1 {
		t.Errorf("%d engine runs, want 1", n)
	}
}

// TestJoinCancel: cancelling the first job leaves its twin the full count, and
// cancelling the twin leaves the first the full count while the twin ends
// cancelled without a result — decision 16(c)'s rules, with a joiner.
func TestJoinCancel(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	want := solo(t, g, "diamond")
	for _, cancelFirst := range []bool{true, false} {
		gate := newGateStore(g, 1)
		s := New(Config{Graphs: map[string]graph.Store{"g": gate}})
		opts := EngineOptions{Workers: 1}
		first := submitNamed(t, s, "alice", "g", "diamond", opts)
		gate.waitFull(t)
		twin := submitNamed(t, s, "bob", "g", "diamond", opts)
		gone, kept := twin, first
		if cancelFirst {
			gone, kept = first, twin
		}
		if st, err := s.Cancel(gone); err != nil || st != StateCancelled {
			t.Fatalf("cancel %s: %s, %v; want cancelled while its batch continues", gone, st, err)
		}
		gate.open()
		if st := waitDone(t, s, kept); st.State != StateDone {
			t.Fatalf("cancelFirst=%v: kept job ended %s (%s)", cancelFirst, st.State, st.Error)
		}
		if res, _ := s.Result(kept); res.Count != want || res.Partial {
			t.Errorf("cancelFirst=%v: kept job returned %+v, want the full count %d", cancelFirst, res, want)
		}
		if res, _ := s.Result(gone); res != nil {
			t.Errorf("cancelFirst=%v: cancelled job has a result %+v", cancelFirst, res)
		}
		closeServer(t, s)
	}
}

// TestJoinRefused: a twin that differs from the held run in graph, induced
// flag or an option, one with a timeout, and any twin under a batch cap of 1
// queue behind the run instead of joining it, and run on their own.
func TestJoinRefused(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	named := GraphRef{Name: "g"}
	for _, c := range []struct {
		name     string
		batchCap int
		ref      GraphRef
		induced  bool
		opts     EngineOptions
	}{
		{"timeout", 0, named, false, EngineOptions{Workers: 1, TimeoutMS: 60_000}},
		{"batch cap 1", 1, named, false, EngineOptions{Workers: 1}},
		{"another graph", 0, GraphRef{Name: "h"}, false, EngineOptions{Workers: 1}},
		{"induced", 0, named, true, EngineOptions{Workers: 1}},
		{"another worker count", 0, named, false, EngineOptions{Workers: 2}},
	} {
		gate := newGateStore(g, 1)
		s := New(Config{Graphs: map[string]graph.Store{"g": gate, "h": g}})
		setThreads(s, 1)
		if c.batchCap > 0 {
			setBatchCap(s, c.batchCap)
		}
		first := submitReq(t, s, "alice", named, "diamond", false, EngineOptions{Workers: 1, TimeoutMS: c.opts.TimeoutMS})
		gate.waitFull(t)
		twin := submitReq(t, s, "bob", c.ref, "diamond", c.induced, c.opts)
		if st, _ := s.Status(twin); st.State != StateQueued || st.BatchWidth != 0 {
			t.Errorf("%s: twin is %s in a width-%d batch; want queued", c.name, st.State, st.BatchWidth)
		}
		gate.open()
		for _, id := range []string{first, twin} {
			if st := waitDone(t, s, id); st.State != StateDone || st.BatchWidth != 1 {
				t.Errorf("%s: job %s ended %s in a width-%d batch; want done alone", c.name, id, st.State, st.BatchWidth)
			}
		}
		if n := batches(s); n != 2 {
			t.Errorf("%s: %d engine runs, want 2", c.name, n)
		}
		closeServer(t, s)
	}
}

// TestJoinPanickingRunFailsJoiners: a run that panics — in a task or around
// the tasks — fails its twin with it, once, and the server goes on.
func TestJoinPanickingRunFailsJoiners(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	for _, bad := range []faultyStore{{Store: g, adj: true}, {Store: g}} {
		reg := obs.NewRegistry(nil)
		gate := newGateStore(bad, 1)
		s := New(Config{Registry: reg, Graphs: map[string]graph.Store{"bad": gate, "good": g}})
		first := submitNamed(t, s, "alice", "bad", "diamond", EngineOptions{Workers: 1})
		gate.waitFull(t)
		twin := submitNamed(t, s, "bob", "bad", "diamond", EngineOptions{Workers: 1})
		gate.open()
		for _, id := range []string{first, twin} {
			if st := waitDone(t, s, id); st.State != StateFailed || !strings.Contains(st.Error, "is corrupt") {
				t.Errorf("adj=%v: job %s ended %s (%q); want failed with the panic", bad.adj, id, st.State, st.Error)
			}
		}
		if p, f := reg.Get(MetricPanics), reg.Get(MetricFailed); p != 1 || f != 2 {
			t.Errorf("adj=%v: %d panics, %d failed; want 1 and 2", bad.adj, p, f)
		}
		waitAllDone(t, s, g, map[string]string{submitNamed(t, s, "bob", "good", "diamond", EngineOptions{Workers: 1}): "diamond"})
		closeServer(t, s)
	}
}

// TestJoinCountsAgainstMaxQueue: a joiner holds a queue slot until it is
// finalized, so with a run held, joiners and queued jobs together meet 429 at
// MaxQueue, and a cancelled joiner frees its slot.
func TestJoinCountsAgainstMaxQueue(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	gate := newGateStore(g, 1)
	s := New(Config{Graphs: map[string]graph.Store{"g": gate}, MaxQueue: 3})
	setThreads(s, 1)
	defer closeServer(t, s)
	defer gate.open()
	opts := EngineOptions{Workers: 1}
	submit := func(name string) (string, error) {
		pat, _ := pattern.ByName(name)
		return s.Submit(SubmitRequest{Tenant: "a", Graph: GraphRef{Name: "g"}, Pattern: PatternRef{Name: name}, Options: opts}, pat)
	}
	jobs := map[string]string{}
	var ids []string
	for _, name := range []string{"diamond", "diamond", "diamond", "triangle"} { // the run, two joiners, one queued
		id, err := submit(name)
		if err != nil {
			t.Fatalf("submit %s with %d jobs accepted: %v", name, len(jobs), err)
		}
		jobs[id], ids = name, append(ids, id)
		if len(ids) == 1 {
			gate.waitFull(t)
		}
	}
	if st, _ := s.Status(ids[1]); st.State != StateRunning {
		t.Fatalf("the first twin is %s, want running in the held batch", st.State)
	}
	for _, name := range []string{"diamond", "wedge"} {
		if _, err := submit(name); !errors.Is(err, ErrQueueFull) {
			t.Errorf("%s past two joiners and one queued job on a queue of 3: %v, want ErrQueueFull", name, err)
		}
	}
	if _, err := s.Cancel(ids[1]); err != nil {
		t.Fatal(err)
	}
	delete(jobs, ids[1])
	id, err := submit("wedge")
	if err != nil {
		t.Fatalf("submit after a joiner was cancelled: %v", err)
	}
	jobs[id] = "wedge"
	if _, err := submit("wedge"); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit on a full queue again: %v, want ErrQueueFull", err)
	}
	gate.open()
	waitAllDone(t, s, g, jobs)
}

// TestJoinCloseAndDrainFinishJoiners: Close and Drain with twins attached to a
// held run finish every one of them — done, full counts — and leave no
// goroutine behind.
func TestJoinCloseAndDrainFinishJoiners(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	before := runtime.NumGoroutine()
	for _, drain := range []bool{true, false} {
		gate := newGateStore(g, 1)
		s := New(Config{Graphs: map[string]graph.Store{"g": gate}})
		opts := EngineOptions{Workers: 1}
		jobs := map[string]string{submitNamed(t, s, "alice", "g", "4-cycle", opts): "4-cycle"}
		gate.waitFull(t)
		jobs[submitNamed(t, s, "bob", "g", "4-cycle", opts)] = "4-cycle"
		jobs[submitNamed(t, s, "alice", "g", "4-cycle", opts)] = "4-cycle"
		stopped := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if drain {
				stopped <- s.Drain(ctx)
			} else {
				stopped <- s.Close(ctx)
			}
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
		if err := <-stopped; err != nil {
			t.Fatalf("drain=%v: %v", drain, err)
		}
		waitAllDone(t, s, g, jobs)
		closeServer(t, s)
	}
	goroutinesReturnTo(t, before)
}

// TestJoinNeverLandsOnADeliveredBatch: a twin submitted the moment its batch's
// first job is reported done or failed — from OnTransition, once the batch's
// members are final — queues and runs; it must not join a batch that has
// already handed out its results (it would never finish).
func TestJoinNeverLandsOnADeliveredBatch(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 7)
	for _, graphName := range []string{"good", "bad"} { // deliver's landing, failBatch's
		late := make(chan string, 1)
		var s *Server
		s = New(Config{
			Graphs: map[string]graph.Store{"good": g, "bad": faultyStore{Store: g}},
			OnTransition: func(id string, st State) {
				if id != "job-1" || !st.Terminal() {
					return
				}
				pat, _ := pattern.ByName("diamond")
				twin, err := s.Submit(SubmitRequest{Tenant: "bob", Graph: GraphRef{Name: graphName}, Pattern: PatternRef{Name: "diamond"},
					Options: EngineOptions{Workers: 1}}, pat)
				if err != nil {
					twin = err.Error()
				}
				late <- twin
			},
		})
		waitDone(t, s, submitNamed(t, s, "alice", graphName, "diamond", EngineOptions{Workers: 1}))
		twin := <-late
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := s.Wait(ctx, twin)
		cancel()
		if err != nil {
			t.Fatalf("%s graph: the twin submitted as its batch landed never finished: %v", graphName, err)
		}
		if st, _ := s.Status(twin); st.BatchWidth != 1 {
			t.Errorf("%s graph: the late twin ran in a width-%d batch, want its own", graphName, st.BatchWidth)
		}
		closeServer(t, s)
	}
}

// TestJoinObservabilityStable: a virtual-clock scenario with a joiner yields
// byte-identical metrics, event log and trace across two runs, and the joiner
// has the lines and flow arrow of any co-batched job: queued, compiling and
// running at its submit, done in the shared batch.
func TestJoinObservabilityStable(t *testing.T) {
	g := graph.ChungLu(200, 1200, 2.3, 3)
	run := func() (metrics, events, trace []byte) {
		reg, tracer, elog := obs.NewRegistry(obs.NewVirtualClock()), obs.NewTracer(nil, 0), obs.NewEventLog(0)
		gate := newGateStore(g, 1)
		s := New(Config{Registry: reg, Clock: obs.NewVirtualClock(), Tracer: tracer, EventLog: elog,
			Graphs: map[string]graph.Store{"g": gate}})
		opts := EngineOptions{Workers: 1}
		first := submitNamed(t, s, "alpha", "g", "4-path", opts)
		gate.waitFull(t)
		twin := submitNamed(t, s, "beta", "g", "4-path", opts)
		gate.open()
		waitDone(t, s, first)
		waitDone(t, s, twin)
		closeServer(t, s)
		var mb, eb, tb bytes.Buffer
		if err := reg.WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		if err := elog.WriteNDJSON(&eb); err != nil {
			t.Fatal(err)
		}
		if err := tracer.WriteChromeJSON(&tb); err != nil {
			t.Fatal(err)
		}
		return mb.Bytes(), eb.Bytes(), tb.Bytes()
	}
	m1, e1, tr1 := run()
	m2, e2, tr2 := run()
	if !bytes.Equal(m1, m2) || !bytes.Equal(e1, e2) || !bytes.Equal(tr1, tr2) {
		t.Fatalf("artifacts differ across identical runs: metrics %v, events %v, trace %v",
			bytes.Equal(m1, m2), bytes.Equal(e1, e2), bytes.Equal(tr1, tr2))
	}
	var twinLines []string
	for _, line := range strings.Split(strings.TrimSpace(string(e1)), "\n") {
		if strings.Contains(line, `"job":"job-2"`) {
			twinLines = append(twinLines, line)
		}
	}
	want := []string{`"event":"queued"`, `"event":"compiling"`, `"event":"running"`, `"event":"done"`}
	if len(twinLines) != len(want) {
		t.Fatalf("joiner's event-log lines %q, want %d", twinLines, len(want))
	}
	for i, line := range twinLines {
		if !strings.Contains(line, want[i]) || i > 0 && !strings.Contains(line, `"batch":"batch-1"`) {
			t.Errorf("joiner's line %d is %s; want %s in batch-1", i, line, want[i])
		}
	}
	if !strings.Contains(twinLines[3], `"queue_wait_ms":0`) {
		t.Errorf("joiner's done line %s; want a queue wait of 0", twinLines[3])
	}
	for _, lane := range []string{`"tid": 2`, `"tid": 1000001`} {
		if !bytes.Contains(tr1, []byte(lane)) {
			t.Errorf("trace has no span on lane %s", lane)
		}
	}
	if n := bytes.Count(tr1, []byte(`"batched-into"`)); n != 4 {
		t.Errorf("trace has %d batched-into flow events, want 4 (two per job)", n)
	}
}
