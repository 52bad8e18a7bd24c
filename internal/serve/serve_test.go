package serve

// httptest smoke for the serving surface, exercised concurrently with a
// real engine run so the -race CI step covers the progress feed: engine
// workers write the Progress atomics through core.Options.OnTaskDone while
// HTTP handlers read them.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeSmoke(t *testing.T) {
	reg := obs.NewRegistry(nil)
	reg.Add("cpu.tasks", 42)
	reg.Add("sim.breakdown.compute", 1000)
	end := reg.StartPhase("mine")
	end()
	var prog Progress
	srv := httptest.NewServer(NewMux(reg, &prog, "flexminer"))
	defer srv.Close()

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz: %d %q", code, body)
	}

	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"flexminer_cpu_tasks 42",
		"flexminer_sim_breakdown_compute 1000",
		`flexminer_phase_duration_ticks{phase="mine"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/debug/progress")
	if code != http.StatusOK {
		t.Fatalf("/debug/progress: status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/progress not JSON: %v\n%s", err, body)
	}

	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", code)
	}
}

// TestServeProgressDuringRun drives a real parallel mine with the Progress
// feed wired while hammering /debug/progress — the race detector proves
// the OnTaskDone path is sound, and the final snapshot must agree with the run.
func TestServeProgressDuringRun(t *testing.T) {
	g := graph.ChungLu(600, 4800, 2.3, 9)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	srv := httptest.NewServer(NewMux(obs.NewRegistry(nil), &prog, "flexminer"))
	defer srv.Close()

	e, err := core.NewEngine(g, pl, core.Options{Threads: 4, SliceElems: 16, OnTaskDone: prog.OnTaskDone})
	if err != nil {
		t.Fatal(err)
	}
	tasks := e.TaskCount()
	prog.BeginRun(tasks)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				get(t, srv, "/debug/progress")
				get(t, srv, "/metrics")
			}
		}
	}()
	res := e.Mine()
	prog.EndRun()
	close(stop)
	wg.Wait()

	snap := prog.Snapshot()
	if snap.Running {
		t.Error("snapshot still running after EndRun")
	}
	if snap.TasksDone != int64(tasks) {
		t.Errorf("tasks_done=%d, want %d", snap.TasksDone, tasks)
	}
	if snap.TasksDone != res.Stats.Tasks {
		t.Errorf("tasks_done=%d disagrees with Stats.Tasks=%d", snap.TasksDone, res.Stats.Tasks)
	}
	// PartialMatches is pre-divisor: counts × the plan's symmetry divisor.
	if want := res.Counts[0] * pl.CountDivisor[0]; snap.PartialMatches != want {
		t.Errorf("partial_matches=%d, want %d (count %d × divisor %d)",
			snap.PartialMatches, want, res.Counts[0], pl.CountDivisor[0])
	}
	if snap.RunsCompleted != 1 {
		t.Errorf("runs_completed=%d, want 1", snap.RunsCompleted)
	}
}

// TestProgressHooksAreInert: wiring the progress feed must not change
// counts or stats (the serve-mode half of the observers-never-perturb
// contract).
func TestProgressHooksAreInert(t *testing.T) {
	g := graph.ChungLu(600, 4800, 2.3, 9)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Mine(g, pl, core.Options{Threads: 4, SliceElems: 16})
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	hooked, err := core.Mine(g, pl, core.Options{Threads: 4, SliceElems: 16, OnTaskDone: prog.OnTaskDone})
	if err != nil {
		t.Fatal(err)
	}
	if hooked.Count() != plain.Count() || hooked.Stats != plain.Stats {
		t.Errorf("progress hooks changed the run:\nhooked %+v\nplain  %+v", hooked.Stats, plain.Stats)
	}
}

// TestListenAndServeDrainsBeforeShutdown: after ctx cancellation the
// drainers must (a) run to completion before the listener closes — the
// server must still answer requests while in-flight mining work finishes —
// and (b) receive a DrainGrace-bounded context. This is the SIGINT fix: the
// old path stopped the listener immediately, orphaning the in-flight mine.
func TestListenAndServeDrainsBeforeShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	drainEntered := make(chan struct{})
	releaseDrain := make(chan struct{})
	var deadlineOK bool
	drain := func(dctx context.Context) error {
		if _, ok := dctx.Deadline(); ok && dctx.Err() == nil {
			deadlineOK = true
		}
		close(drainEntered)
		<-releaseDrain
		return nil
	}
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", NewMux(nil, nil, ""), func(addr string) { ready <- addr }, drain)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	cancel()
	select {
	case <-drainEntered:
	case <-time.After(10 * time.Second):
		t.Fatal("drainer never ran after ctx cancellation")
	}
	// Mid-drain the listener must still serve: in-flight work stays
	// observable on /metrics until the drain completes.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("server stopped serving during drain: %v", err)
	}
	resp.Body.Close()
	select {
	case err := <-done:
		t.Fatalf("ListenAndServe returned %v before the drainer finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseDrain)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown after drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete after drain")
	}
	if !deadlineOK {
		t.Error("drainer context carried no deadline (DrainGrace not applied)")
	}
}

// TestListenAndServeDrainErrorPropagates: a drainer that gives up (deadline
// expired with work still running) must not abort the shutdown, but its
// error must surface to the caller.
func TestListenAndServeDrainErrorPropagates(t *testing.T) {
	old := DrainGrace
	DrainGrace = 30 * time.Millisecond
	defer func() { DrainGrace = old }()

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	drain := func(dctx context.Context) error {
		<-dctx.Done() // simulate work outlasting the grace period
		return dctx.Err()
	}
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", NewMux(nil, nil, ""), func(addr string) { ready <- addr }, drain)
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.DeadlineExceeded {
			t.Errorf("drain overrun returned %v, want DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on an overrunning drainer")
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

// TestListenAndServeJoinsListener holds the runtime half of the goroutine-leak
// invariant for the listener (internal/lint's goroleak holds the static half):
// after serving a request, a ctx cancel and a drainer, ListenAndServe returns
// with its Serve goroutine and every connection goroutine gone.
func TestListenAndServeJoinsListener(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	drained := false
	drain := func(context.Context) error { drained = true; return nil }
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", NewMux(nil, nil, ""), func(addr string) { ready <- addr }, drain)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	// No keep-alive: an idle client connection would outlive the server.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil || !drained {
			t.Errorf("shutdown returned %v, drained = %v", err, drained)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	goroutinesReturnTo(t, before)
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", NewMux(nil, nil, ""), func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}
